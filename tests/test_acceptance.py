"""End-to-end acceptance checks, one per criterion, each emitting a
single PASS/FAIL line (run with -s to see them all)."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from circlesys.consys import (build_sequence, check_unique_readability,
                              estimate_cylinder, in_S_window,
                              verify_uniformity)
from circlesys.errors import ConstraintError, OracleMismatch
from circlesys.factor import coherent_from_top, enumerate_coherent, rho_trace, shift_point
from circlesys.names import (crosscheck_tower, distinct_names,
                             name_stability, simulate_tower_name)
from circlesys.procsim import (build_process, check_requirements,
                               compose_stage, h_from_words, initial_process,
                               rotation_perm)
from circlesys.ratarith import DynOrder, derive_params, dyn_order
from circlesys.smoothreal import StandardSwap, perm_to_swaps, realize_perm
from circlesys.stagemap import map_distance, sample_jacobian, stage_map
from circlesys.words import B, boundary_stats, circ, parse

from strategies import materialised_z

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
BIG = derive_params([2, 2, 4], [4, 4, 4], [2, 2, 4, 8])
VAR = derive_params([2, 4], [4, 4], [2, 2, 4])
W1 = [(0, 1), (1, 0)]
W2_DUP = [(0, 1), (1, 0), (0, 1), (1, 0)]
W2_VAR = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %-22s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def desk_cs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_sequence(2, DESK, [W1, W2_DUP])


def desk_procs():
    p0 = initial_process(DESK)
    h1 = h_from_words(DESK, 0, W1)
    p1 = compose_stage(p0, h1)
    h2 = h_from_words(DESK, 1, W2_DUP)
    p2 = compose_stage(p1, h2)
    return p0, p1, p2, h1, h2


def test_01_parameter_recursion():
    t0 = time.perf_counter()
    ok = DESK.p == (0, 1, 65) and DESK.q == (1, 8, 512)
    for n in range(2):
        ok &= DESK.alpha(n + 1) - DESK.alpha(n) == Fraction(1, DESK.q[n + 1])
    dt = time.perf_counter() - t0
    report(1, "parameter-recursion", ok and dt < 0.001, "%.4fms" % (dt * 1e3))


def test_02_reverse_numerology():
    checks = 0
    ok = True
    for n in (1, 2):
        q = DESK.q[n]
        order = dyn_order(DESK, n)
        for i in range(1, q):
            ok &= q - order[i] == order[q - i]
            checks += 1
    # stage 3, 2^22 identities, vectorized
    q3 = BIG.q[3]
    assert q3 == 2 ** 22
    t = dyn_order(BIG, 3).table
    i = np.arange(1, q3)
    ok &= bool(np.all(q3 - t[i] == t[q3 - i]))
    checks += q3 - 1
    report(2, "reverse-numerology", ok, "%d checks" % checks)


def test_03_circ_length_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        q = int(rng.integers(1, 33))
        k = int(rng.integers(1, 5))
        l = int(rng.integers(2, 6))
        units = [a for a in range(1, q) if math.gcd(a, q) == 1] or [0]
        p = int(rng.choice(units)) if q > 1 else 0
        children = [tuple(rng.integers(0, 4, q).tolist()) for _ in range(k)]
        w = circ(children, k, l, q, DynOrder(p, q))
        ok &= len(w) == k * l * q * q
    dt = time.perf_counter() - t0
    report(3, "circ-length-identity", ok and dt < 1.0, "%.2fs" % dt)


def test_04_unique_readability():
    t0 = time.perf_counter()
    cs = desk_cs()
    ok = check_unique_readability(cs, 2) == []
    lv = cs.levels[2]
    offsets = set()
    for u in lv:
        for v in lv:
            offsets |= {off for off, _ in parse(np.concatenate([u, v]), lv)}
    ok &= offsets == {0, 512}
    dt = time.perf_counter() - t0
    report(4, "unique-readability", ok and dt < 1.0, "offsets %s" % sorted(offsets))


def test_05_boundary_fractions():
    cs = desk_cs()
    ok = True
    for n in (1, 2):
        order = dyn_order(DESK, n - 1)
        for w in cs.levels[n]:
            st = boundary_stats(w, k=DESK.k[n - 1], l=DESK.l[n - 1],
                                q=DESK.q[n - 1], order=order)
            ok &= st.boundary_fraction == Fraction(1, DESK.l[n - 1])
            ok &= st.near_fraction <= Fraction(3, DESK.l[n - 1])
    report(5, "boundary-fractions", ok)


def test_06_strong_uniformity():
    cs = desk_cs()
    r0, r1 = verify_uniformity(cs, 0), verify_uniformity(cs, 1)
    ok = r0.strong and r0.f_value == 3 and r0.densities[0] == Fraction(3, 8)
    ok &= r1.strong and r1.f_value == 24
    for n in (0, 1):
        for u in range(2):
            est = estimate_cylinder(cs, u, n, n)
            ok &= est.within_bound and est.gap <= 2 * verify_uniformity(cs, n).eps
    report(6, "strong-uniformity", ok, "f=3,24 gap<=2eps")


def test_07_process_simulation():
    t0 = time.perf_counter()
    _, p1, p2, h1, h2 = desk_procs()
    ok = p2.atoms == 2048 <= 16384
    for proc in (p1, p2):
        atoms = np.concatenate(proc.towers())
        ok &= sorted(atoms.tolist()) == list(range(proc.atoms))
    for n, h in ((0, h1), (1, h2)):
        rot = rotation_perm(DESK, n, h.cols, h.rows)
        ok &= h.compose(rot) == rot.compose(h)
    rep = check_requirements(DESK, [W1, W2_DUP])
    ok &= rep.req2                     # readback of the claimed words exact
    dt = time.perf_counter() - t0
    report(7, "process-simulation", ok and dt < 1.0, "%d atoms %.2fs" % (p2.atoms, dt))


def test_08_name_oracle():
    t0 = time.perf_counter()
    p0, p1, p2, h1, h2 = desk_procs()
    ok = True
    for s in range(2):
        crosscheck_tower(p1, p0, h1, s)
    for s in range(4):
        crosscheck_tower(p2, p1, h2, s)
    for n, proc in ((1, p1), (2, p2)):
        name = tuple(int(x) for x in simulate_tower_name(proc, 0))
        st = boundary_stats(name, k=DESK.k[n - 1], l=DESK.l[n - 1],
                            q=DESK.q[n - 1], order=dyn_order(DESK, n - 1))
        ok &= st.boundary_fraction == Fraction(1, DESK.l[n - 1])
    dt = time.perf_counter() - t0
    report(8, "name-oracle", ok and dt < 5.0, "%.2fs" % dt)


def test_09_name_stability():
    _, p1, p2, _, _ = desk_procs()
    rep = name_stability(p1, p2)
    ok = rep.fraction >= rep.bound == Fraction(1, 4)
    ok &= rep.fraction == Fraction(65, 256)
    big_l = derive_params([2, 2], [4, 64], [2, 2, 4])
    q0 = initial_process(big_l)
    q1 = compose_stage(q0, h_from_words(big_l, 0, W1))
    q2 = compose_stage(q1, h_from_words(big_l, 1, W2_DUP))
    rep2 = name_stability(q1, q2)
    ok &= rep2.fraction >= rep2.bound == 1 - Fraction(3, 64)
    report(9, "name-stability", ok, "%s >= %s; %s >= %s"
           % (rep.fraction, rep.bound, rep2.fraction, rep2.bound))


def test_10_factor_map():
    t0 = time.perf_counter()
    pts = list(enumerate_coherent(DESK, 2))
    ok = len(pts) == 288
    for pt in pts:
        tr = rho_trace(pt)          # raises on any violated property
        ok &= all(tr.rhos[i] <= tr.rhos[i + 1] for i in range(2))
    rng = np.random.default_rng(10)
    hits = 0
    while hits < 10000:
        m = int(rng.integers(0, BIG.q[3]))
        pt = coherent_from_top(BIG, 3, m)
        if pt is None:
            continue
        hits += 1
        tr = rho_trace(pt)          # gaps in [0, 1/q_n), d_index round-trip
        nxt = shift_point(pt)
        if hasattr(nxt, "offsets"):
            t2 = rho_trace(nxt)
            for n in range(4):
                ok &= (t2.rhos[n] - tr.rhos[n]) % 1 == BIG.alpha(n) % 1
    dt = time.perf_counter() - t0
    report(10, "factor-map", ok and dt < 10.0,
           "288 exhaustive + %d sampled, %.1fs" % (hits, dt))


def test_11_distinct_names():
    v1 = compose_stage(initial_process(VAR), h_from_words(VAR, 0, W1))
    v2 = compose_stage(v1, h_from_words(VAR, 1, W2_VAR))
    ok = distinct_names(v1).distinct and distinct_names(v2).distinct
    _, _, p2, _, _ = desk_procs()
    dup = distinct_names(p2)
    ok &= not dup.distinct and dup.witness is not None
    report(11, "distinct-names", ok, "witness %s" % (dup.witness,))


def test_12_smoothing():
    t0 = time.perf_counter()
    rep = realize_perm([1, 0, 2, 3], (2, 2), 0.05, seed=4, samples=10000)
    ok = rep.obedient >= 0.95
    sw = StandardSwap(0.05)
    dets = sample_jacobian(sw, sw.smooth_samples(np.random.default_rng(6), 3000))
    ok &= bool(np.max(np.abs(np.abs(dets) - 1.0)) < 1e-6)
    rng = np.random.default_rng(7)
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        sigma = [int(v) for v in rng.permutation(m * n)]
        swaps = perm_to_swaps(sigma)       # recomposition asserted inside
        # bubble sort makes exactly one adjacent swap per inversion
        ok &= len(swaps) == sum(1 for i in range(m * n)
                                for j in range(i + 1, m * n)
                                if sigma[i] > sigma[j])
    sigma = [int(v) for v in np.random.default_rng(8).permutation(16)]
    rep4 = realize_perm(sigma, (4, 4), 0.1, seed=9, samples=100000)
    ok &= rep4.obedient >= 0.9
    dt = time.perf_counter() - t0
    report(12, "smoothing", ok and dt < 60.0,
           "swap %.3f, 4x4 %.3f, %.1fs" % (rep.obedient, rep4.obedient, dt))


def test_13_stage_map_consistency():
    eps = 0.05
    h1 = h_from_words(DESK, 0, W1)
    p1 = compose_stage(initial_process(DESK), h1)
    S1, _ = stage_map(DESK, [h1], eps=0.02, seed=3, samples=20000)
    rng = np.random.default_rng(13)
    N = 10000
    pts = rng.random((N, 2))
    q1, s1 = DESK.q[1], DESK.s[1]
    kc, kr = DESK.k[0], DESK.s[1]     # h-grid cell resolution

    def fine_atom(p):
        col = np.clip((p[:, 0] * q1).astype(int), 0, q1 - 1)
        row = np.clip((p[:, 1] * s1).astype(int), 0, s1 - 1)
        return row * q1 + col

    def coarse_of_atom(a):
        return (a // q1 * kr // s1) * kc + (a % q1) * kc // q1

    def coarse_cell(p):
        col = np.clip((p[:, 0] * kc).astype(int), 0, kc - 1)
        row = np.clip((p[:, 1] * kr).astype(int), 0, kr - 1)
        return row * kc + col

    H = S1.conjugate_out
    rot = rotation_perm(DESK, 1, p1.cols, p1.rows)
    Z1 = materialised_z(p1)
    cur, atoms = pts.copy(), fine_atom(pts)
    match = np.ones(N, bool)
    for _ in range(q1):               # one full tower period
        match &= coarse_cell(H(cur)) == coarse_of_atom(Z1.table[atoms])
        cur[:, 0] = (cur[:, 0] + float(DESK.alpha(1))) % 1.0
        atoms = rot.table[atoms]
    frac_match = float(match.mean())
    ok = frac_match >= 1 - eps

    # proximity probe: consecutive stage maps approach as l_1 grows
    probe_pts = rng.random((3000, 2))
    dists = []
    for l1 in (4, 64):
        params = derive_params([2, 2], [l1, 4], [2, 2, 4])
        g1 = h_from_words(params, 0, W1)
        g2 = h_from_words(params, 1, W2_DUP)
        A, _ = stage_map(params, [g1], eps=0.02, seed=5)
        Bm, _ = stage_map(params, [g1, g2], eps=0.02, seed=5)
        dists.append(map_distance(A, Bm, probe_pts)[0])
    ok &= dists[1] < dists[0]
    report(13, "stage-map-consistency", ok,
           "match %.3f, probe %.4f -> %.4f" % (frac_match, dists[0], dists[1]))


def test_14_negative_controls():
    skew = build_sequence(2, DESK, [[(0, 0), (1, 0)], W2_DUP])
    ok = not verify_uniformity(skew, 0).strong
    ok &= not estimate_cylinder(skew, 0, 0, 0, eps=0).within_bound
    rep = check_requirements(DESK, [W1, W2_DUP])
    ok &= not rep.req3 and rep.req3_witness is not None
    cert = in_S_window((B,) * 12, desk_cs(), 3)
    ok &= cert.failed_stage == 1
    _, p1, p2, _, _ = desk_procs()
    bad_h = h_from_words(DESK, 1, [(1, 0), (0, 1), (0, 1), (1, 0)])
    raised = False
    try:
        for s in range(4):
            crosscheck_tower(p2, p1, bad_h, s)
    except OracleMismatch as exc:
        raised = (exc.index, exc.left, exc.right) == (9, 0, 1)
    ok &= raised
    report(14, "negative-controls", ok)
