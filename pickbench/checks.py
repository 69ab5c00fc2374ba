"""Output checks for one batch pass, made with shelfpick's public API.

Each trial's log is replayed against its scene: every nudge must leave the
items apart and inside the walls and move no non-target item toward the
target, and re-running the grasp with the logged contacts must reproduce the
logged verdict. On noise-free workloads the outcome must also agree with
``scene_pickable`` (acceptance criterion 6).
"""

from __future__ import annotations

from dataclasses import replace

from shelfpick import (
    ContactPair,
    EffectorGeom,
    PickConfig,
    assign_roles,
    run_grasp,
    scene_from_dict,
    scene_pickable,
)

TOL = 1e-9


def _scene_at(scene, positions: dict[str, float]):
    items = [replace(it, y=float(positions[it.id])) for it in scene.items]
    target = next(it for it in items if it.id == scene.target_id)
    return assign_roles(items, scene.target_id, target.z, scene.shelf, scene.rng_seed)


def _check_nudge(scene, before: dict[str, float], after: dict[str, float]) -> list[str]:
    if set(after) != set(before):
        return [f"nudge positions name items {sorted(after)}, scene has {sorted(before)}"]
    problems = []
    target_y = before[scene.target_id]
    for item_id, y0 in before.items():
        if item_id == scene.target_id:
            continue
        dy = after[item_id] - y0
        if (y0 < target_y and dy > TOL) or (y0 > target_y and dy < -TOL):
            problems.append(f"nudge moves {item_id!r} toward the target by {abs(dy):.3g} m")
    try:
        _scene_at(scene, after).validate()
    except ValueError as exc:
        problems.append(f"nudge leaves an invalid layout: {exc}")
    return problems


def check_trial(doc: dict, row: dict, config: PickConfig, predict: bool) -> list[str]:
    """Problems found in one trial log (empty when it passes every check).

    ``row`` is the trial's CSV row; ``predict`` asks for the criterion-6
    comparison with ``scene_pickable``.
    """
    scene = scene_from_dict(doc["scene"])
    result = doc["result"]
    problems = []
    if row["outcome"] != result["outcome"]:
        problems.append(f"CSV outcome {row['outcome']} but log outcome {result['outcome']}")

    conf = doc["config"]
    ee = EffectorGeom(radius=conf["ee_radius"], approach_offset=conf["approach_offset"])
    positions = {it.id: it.y for it in scene.items}
    grasps = 0
    for event in result["events"]:
        if event["event"] == "nudge":
            after = {k: float(v) for k, v in event["positions"].items()}
            problems += _check_nudge(scene, positions, after)
            if set(after) == set(positions):
                positions = after
        elif event["event"] == "grasp":
            grasps += 1
            (c_l, c_r), (n_l, n_r) = event["contacts"], event["normals"]
            replay = run_grasp(
                _scene_at(scene, positions), ContactPair(c_l, c_r, n_l, n_r), ee,
                config.grasp, config.planner.disturbance,
                config.planner.min_contact_separation,
            )
            if (replay.success, replay.stage or "") != (event["success"], event["stage"]):
                problems.append(
                    f"grasp replay gives success={replay.success} stage={replay.stage!r}, "
                    f"log has success={event['success']} stage={event['stage']!r}"
                )
            if event["success"] != (result["outcome"] == "Success"):
                problems.append(f"grasp success={event['success']} but outcome {result['outcome']}")

    if grasps != (result["outcome"] in ("Success", "GraspFailed")):
        problems.append(f"{grasps} grasp event(s) for outcome {result['outcome']}")
    if predict and scene_pickable(scene, config) != (result["outcome"] == "Success"):
        problems.append(f"scene_pickable disagrees with outcome {result['outcome']}")
    return problems
