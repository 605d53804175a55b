"""Bench: regenerate Fig. 22 (user satisfaction over thresholds).

Paper shape to hold: PATU's intermediate thresholds score at least as
well as both extremes (AF always-on at 1.0, AF-off at 0.0), and
high-resolution replays prefer lower thresholds than low-resolution
ones.
"""

from repro.experiments import fig22_user_study


def test_fig22_user_study(ctx, record_result):
    result = fig22_user_study.run(ctx)
    record_result(result)
    rows = {(r["workload"], r["threshold"]): r for r in result.rows}

    for name in fig22_user_study.WORKLOADS:
        best = result.preferred[name]
        score_best = rows[(name, best)]["score"]
        score_off = rows[(name, 0.0)]["score"]
        score_base = rows[(name, 1.0)]["score"]
        assert score_best >= score_off - 1e-9
        assert score_best >= score_base - 1e-9
        # All scores in the 1-5 instrument range.
        for t in fig22_user_study.THRESHOLDS:
            assert 1.0 <= rows[(name, t)]["score"] <= 5.0

    # Resolution preference trend (paper observation 1 vs 2).
    assert (
        result.preferred["doom3-1280x1024"]
        <= result.preferred["doom3-640x480"] + 1e-9
    )
