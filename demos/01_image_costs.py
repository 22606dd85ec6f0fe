"""Score single images and read the correction plan.

Four tiny scenes show what the image-level cost responds to: a perfect
detection, a redundant duplicate, a completely missed image, and a
mislabeled box.
"""

from oceval import BoundingBox, Detection, GroundTruthInstance, OcCostParams, image_oc_cost

box = BoundingBox(100, 100, 200, 180)
params = OcCostParams()  # loc_weight 0.5, dummy_cost 0.6

gt = [GroundTruthInstance(box, label=1)]

scenes = {
    "perfect detection": [Detection(box, label=1, score=1.0)],
    "duplicate detection": [Detection(box, 1, 1.0), Detection(box, 1, 1.0)],
    "no detections": [],
    "wrong label": [Detection(box, label=2, score=1.0)],
    "hedged score": [Detection(box, label=1, score=0.6)],
}

for name, dets in scenes.items():
    result = image_oc_cost(dets, gt, params)
    print(f"{name:22s} oc_cost {result.oc_cost:.4f}  matched {result.matched_pairs}")

print()
print("the duplicate plan, pair by pair:")
result = image_oc_cost(scenes["duplicate detection"], gt, params)
plan, beta = result.plan, params.dummy_cost
for det, gt_i, cost in zip(plan.det_indices.tolist(), plan.gt_indices.tolist(), plan.costs.tolist()):
    print(f"  det {det} -> gt {gt_i}  cost {cost:.3f}")
for det in plan.unmatched_detections.tolist():
    print(f"  det {det} -> gt -  cost {beta:.3f}")
for gt_i in plan.unmatched_ground_truths.tolist():
    print(f"  det - -> gt {gt_i}  cost {beta:.3f}")
print(f"total {result.oc_cost:.3f}: one free match, one false positive at 0.6, mass 2")
