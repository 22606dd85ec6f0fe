import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oceval import BoundingBox, ConfigError, FixtureSpec, generate_fixture

from oracles import iou, scalar_fixture


def test_spec_validation():
    with pytest.raises(ConfigError):
        FixtureSpec(images=0)
    with pytest.raises(ConfigError):
        FixtureSpec(jitter=0.5)
    with pytest.raises(ConfigError):
        FixtureSpec(det_score=1.5)
    with pytest.raises(ConfigError):
        FixtureSpec(categories=0)
    for seed in (-1, 2**128):
        with pytest.raises(ConfigError):
            FixtureSpec(seed=seed)


def test_deterministic():
    spec = FixtureSpec(images=4, gts_per_image=5, seed=17)
    assert generate_fixture(spec) == generate_fixture(spec)
    other = generate_fixture(FixtureSpec(images=4, gts_per_image=5, seed=18))
    assert other != generate_fixture(spec)


def test_counts_and_structure():
    spec = FixtureSpec(images=3, gts_per_image=4, noise_per_image=2, categories=2)
    gt_doc, dets = generate_fixture(spec)
    assert len(gt_doc["images"]) == 3
    assert len(gt_doc["annotations"]) == 12
    assert len(dets) == 18
    assert [c["id"] for c in gt_doc["categories"]] == [1, 2]
    # annotation ids unique and sequential
    ids = [a["id"] for a in gt_doc["annotations"]]
    assert ids == list(range(1, 13))


def corner(bbox):
    x, y, w, h = bbox
    return BoundingBox(x, y, x + w, y + h)


def test_instances_are_disjoint_within_image():
    spec = FixtureSpec(images=2, gts_per_image=6, noise_per_image=3, jitter=0.1, seed=2)
    gt_doc, dets = generate_fixture(spec)
    for image_id in (1, 2):
        boxes = [corner(a["bbox"]) for a in gt_doc["annotations"] if a["image_id"] == image_id]
        boxes += [corner(d["bbox"]) for d in dets if d["image_id"] == image_id and d["score"] == spec.noise_score]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) == 0.0


def test_detections_overlap_their_ground_truth():
    spec = FixtureSpec(images=2, gts_per_image=5, jitter=0.1, seed=4)
    gt_doc, dets = generate_fixture(spec)
    ann_by_image = {}
    for ann in gt_doc["annotations"]:
        ann_by_image.setdefault(ann["image_id"], []).append(ann)
    det_by_image = {}
    for det in dets:
        det_by_image.setdefault(det["image_id"], []).append(det)
    for image_id, anns in ann_by_image.items():
        for ann, det in zip(anns, det_by_image[image_id]):
            assert det["category_id"] == ann["category_id"]
            assert iou(corner(ann["bbox"]), corner(det["bbox"])) > 0.5


def test_zero_jitter_copies_boxes():
    spec = FixtureSpec(images=1, gts_per_image=3, jitter=0.0, det_score=1.0)
    gt_doc, dets = generate_fixture(spec)
    for ann, det in zip(gt_doc["annotations"], dets):
        assert ann["bbox"] == det["bbox"]
        assert det["score"] == 1.0


ORACLE_SPECS = [
    FixtureSpec(),
    FixtureSpec(images=3, gts_per_image=7, noise_per_image=50, seed=7),
    FixtureSpec(images=2, gts_per_image=5, noise_per_image=3, jitter=0),
    FixtureSpec(images=2, gts_per_image=5, noise_per_image=3, jitter=1e-300),
    FixtureSpec(images=2, gts_per_image=4, jitter=0.1, det_score=1.0, categories=80),
    FixtureSpec(images=3, gts_per_image=0, noise_per_image=4, seed=1),
    FixtureSpec(images=2, gts_per_image=6, noise_per_image=0, image_size=64),
    FixtureSpec(images=2, gts_per_image=0, noise_per_image=0),
    FixtureSpec(images=2, gts_per_image=3, noise_per_image=2, seed=2**64 + 3),
    FixtureSpec(images=2, gts_per_image=3, noise_per_image=2, image_size=1333, seed=2**128 - 1),
    FixtureSpec(images=4, gts_per_image=7, categories=80, noise_per_image=93, jitter=0.037, seed=5),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_generator_writes_what_the_scalar_oracle_writes(spec):
    # one draw call per image gives the numbers of one scalar call per number,
    # and the boxes are the same float64 operations, correctly rounded
    assert json.dumps(generate_fixture(spec)) == json.dumps(scalar_fixture(spec))


@settings(max_examples=100, deadline=None)
@given(
    images=st.integers(1, 3),
    gts=st.integers(0, 10),
    noise=st.integers(0, 20),
    categories=st.integers(1, 90),
    image_size=st.integers(64, 4096),
    jitter=st.sampled_from([0.0, 1e-300, 0.1]) | st.floats(0, 0.1),
    seed=st.integers(0, 2**128 - 1),
)
def test_any_spec_builds_what_the_scalar_oracle_builds(
    images, gts, noise, categories, image_size, jitter, seed
):
    spec = FixtureSpec(images=images, gts_per_image=gts, noise_per_image=noise, categories=categories,
                       image_size=image_size, jitter=jitter, seed=seed)
    assert json.dumps(generate_fixture(spec)) == json.dumps(scalar_fixture(spec))


def test_neighbouring_images_draw_overlapping_streams():
    # a known flaw kept for stable datasets: image 2's stream is image 1's
    # shifted by one Philox block, so its first three box sizes are image 1's last three
    _, dets = generate_fixture(FixtureSpec(images=3, gts_per_image=0, noise_per_image=4, seed=1))
    sizes = [[d["bbox"][2:] for d in dets if d["image_id"] == image_id] for image_id in (1, 2)]
    assert sizes[1][:3] == sizes[0][1:]
