"""The infinite scheme's bisection in closed form against the loop it replaced.

`montecarlo._halting` reads each entered trial's halting round, far side and
halted flag from the leading bits of its two error-rectangle coordinates.
These tests check it against that loop, frozen here, on drawn and edge
coordinates at round limits on both sides of the 63 bits the closed form
reads, and check `simulate`'s infinite reports at round limits 1-3 and 64
against digests the loop gave.
"""

import dataclasses
import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from babai_refine import LatticeParams, SimConfig, montecarlo, simulate


def _bisection_loop(y1: float, y2: float, max_rounds: int) -> tuple[int, bool, bool]:
    """The loop run_batch_infinite ran on each entered trial: round k reads
    b = [y > 1/2] of both coordinates and sets y <- 2y - b, halting on the
    first equal pair.  Returns the bisection rounds, the last round's bit of
    y1 (the far side where it halted) and whether it halted."""
    far = False
    for k in range(1, max_rounds):
        b1, b2 = y1 > 0.5, y2 > 0.5
        far = b1
        if b1 == b2:
            return k, far, True
        y1 = 2.0 * y1 - float(b1)
        y2 = 2.0 * y2 - float(b2)
    return max_rounds - 1, far, False


_EDGES = (
    0.0, 0.5, 1.0, 5e-324, 2.0**-40, 1.0 - 2.0**-53, 2.0**-63, 2.0**-64, 2.0**-70,
    0.25, 0.75, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
    # read as 1 (a corner's y2 can round above 1) and as 0 (H1 = 0 gives NaN)
    math.nextafter(1.0, 2.0), 1.5, math.inf, math.nan,
)
_LIMITS = (1, 2, 3, 63, 64, 65, 200)

_coordinate = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0), st.floats(0.0, 2.0**-50))


@st.composite
def _pairs(draw):
    """A pair of coordinates: drawn apart, on the diagonal y1 + y2 = 1 (in
    either order, and an ulp off it), or equal."""
    y1 = draw(_coordinate)
    kind = draw(st.sampled_from(("apart", "diagonal", "swapped", "off", "equal")))
    if kind == "apart":
        return y1, draw(_coordinate)
    if kind == "equal" or not 0.0 <= y1 <= 1.0:
        return y1, y1
    y2 = 1.0 - y1
    if kind == "off":
        y2 = math.nextafter(y2, draw(st.sampled_from((0.0, 2.0))))
    return (y2, y1) if kind == "swapped" else (y1, y2)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    pairs=st.lists(_pairs(), min_size=1, max_size=40),
    max_rounds=st.one_of(st.sampled_from(_LIMITS), st.integers(1, 300)),
)
def test_closed_form_halting_round_is_the_loops(pairs, max_rounds):
    """Rounds and halted flags equal the loop's on every pair, the far side
    too wherever the loop halts (an unhalted trial's side is the side test's)."""
    y1 = np.array([a for a, _ in pairs])
    y2 = np.array([b for _, b in pairs])
    y1_in, y2_in = y1.copy(), y2.copy()
    rounds, far, halted = montecarlo._halting(y1, y2, max_rounds, montecarlo.Workspace())
    assert rounds.dtype == np.int64 and far.dtype == halted.dtype == bool
    assert y1.tobytes() == y1_in.tobytes() and y2.tobytes() == y2_in.tobytes()
    for i, (a, b) in enumerate(pairs):
        want = _bisection_loop(a, b, max_rounds)
        assert (int(rounds[i]), bool(halted[i])) == (want[0], want[2]), (a, b)
        if want[2]:
            assert bool(far[i]) == want[1], (a, b)


def test_closed_form_covers_every_edge_pair_at_every_limit():
    """Every pair of the edge coordinates, at each listed limit, in one call."""
    grid = np.array([(a, b) for a in _EDGES for b in _EDGES])
    for max_rounds in _LIMITS:
        rounds, far, halted = montecarlo._halting(
            grid[:, 0].copy(), grid[:, 1].copy(), max_rounds, montecarlo.Workspace()
        )
        for i, (a, b) in enumerate(grid.tolist()):
            want = _bisection_loop(a, b, max_rounds)
            assert (int(rounds[i]), bool(halted[i])) == (want[0], want[2]), (a, b, max_rounds)
            assert not want[2] or bool(far[i]) == want[1], (a, b, max_rounds)


# the benchmark's three lattices and 20 from_rcos lattices
_LATTICES = {
    "hexagonal": LatticeParams(rho=1.0, theta=math.pi / 3 + 1e-6),
    "rcos0.3": LatticeParams(rho=1.0, theta=math.acos(0.3)),
    "near-rectangular": LatticeParams(rho=1.0, theta=math.pi / 2 - 1e-3),
}
_rng = np.random.default_rng(24)
for _k in range(20):
    _rho = float(_rng.uniform(1.0, 1.5))
    _rcos = float(math.exp(_rng.uniform(math.log(1e-6), math.log(0.5 - 1e-6))))
    _LATTICES[f"rcos{_k}"] = LatticeParams.from_rcos(_rho, _rcos)

# sha256 of each lattice's infinite SimReports at max_rounds 1, 2, 3 and 64
# ((1 << 16) + 7 trials, seed 38), as the bisection loop gave them
_LOOP_DIGESTS = {
    "hexagonal": "62d2be23e5d243a66490a5c70a6709f85efab6c36c56c53ec1ac381ebf6c4afa",
    "rcos0.3": "fe020712f217b082916a31269f214f952a75a56af616642dbec5f3271407b5a7",
    "near-rectangular": "90c9d7168fbeec6ee61dd0faf2a31862bc061b1fad49bedbc3335f01a9055b41",
    "rcos0": "cb801c776911abd97f40d1de8f79634f92887a4cb278bd655d82bf939fda96e1",
    "rcos1": "ce5dc89d7ffaf6d9bde2db767a79e9c028ab86d07cc7b9a3c3e5d3195117cbc5",
    "rcos2": "93418f2b3905c57abfc7bc4911525fe2ac581a186af1edb49f544d8f4ed70ec6",
    "rcos3": "06a6686a351adfdbfa694b919c379b2155d2dd5077f65b6abc7f2e7f9ef23998",
    "rcos4": "11207570c41aae47a57d82138980f83d42ab4b77d76d30bffd4361d853dbdc33",
    "rcos5": "cf2cbb9232210e53636ff2465e3c814092111e0a4c340010a75211c4f94e441e",
    "rcos6": "8d0b6abefd4155483a7768d03917b6b26edc0c002fc34f16c7e9989a9474ff91",
    "rcos7": "6464b368c9f06ce55b33fdfebbd52ca076e8aaf9c1126db1617a3b8811a5e5db",
    "rcos8": "6c1401a4431dba79648e6427023bff10bd0e54ac4dc6d8953fc088a1d29d638d",
    "rcos9": "2bff6b7ee4e23d2e96d2194bdee8ae057ed1d9b2c515fb15be3f7936365ce95a",
    "rcos10": "6a430fab9987e8a1d6a5d6a694af33fc849e0b4c5837ac7794f356292c221427",
    "rcos11": "ca0463178988538deea5d4e1fa3c305adacb448dfa28ed8005319e5c415fdac2",
    "rcos12": "4eaf74d412c178bfb21c46825f89d59f4c0c7c20e3f701edfa63c7b7ba4b0723",
    "rcos13": "d05a787967275702286f52395773b74fc304413616a15e31f6ed91c27a9f979d",
    "rcos14": "50c0c822ee262c14c3acb974ede610423a8a2c004c134cfd1b9354d3750546f0",
    "rcos15": "9895a36e88f5372415500c870c65bcb454709d5558c50f72597a1f411cbe5d23",
    "rcos16": "3456e8966128bd8e79c9843ad7edb2a7a2f4c5d7fe5bd1a9f8adb9001412b34f",
    "rcos17": "338c81a75f8595cc6ddbb6e223c9a3764a192b445773b76ab2856c7ec10ae7c2",
    "rcos18": "8e04543dcc6351409cc57a80788c1063c9b76216b35a48dfb801625c02f3e889",
    "rcos19": "f3d734512abe8aeb64bf89bb9c41396c63090adda6bdf3f8affa9b78718308d8",
}


def _report_digest(params: LatticeParams) -> str:
    h = hashlib.sha256()
    for max_rounds in (1, 2, 3, 64):
        config = SimConfig(params, "infinite", trials=(1 << 16) + 7, seed=38, max_rounds=max_rounds)
        fields = dataclasses.astuple(simulate(config))
        h.update(repr([v.hex() if isinstance(v, float) else v for v in fields]).encode())
    return h.hexdigest()


def test_infinite_reports_are_the_loops():
    """simulate's infinite reports at round limits 1-3 and 64, every field
    bit for bit, equal those of the bisection loop on all 23 lattices."""
    got = {name: _report_digest(params) for name, params in _LATTICES.items()}
    assert got == _LOOP_DIGESTS
