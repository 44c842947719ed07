"""Byte-identity of reports, kernel outputs, transcripts and CLI output.

Each case renders one deterministic output of the package (a SimReport as
JSON, the per-trial arrays of the batch kernels, a batch of
transcripts with their replayed decisions, a CLI command's stdout) and
compares its SHA-256 with the value recorded when the case was
written.  A change that claims to keep behaviour must leave every digest as
it is; a change that means to alter an output must say so and re-record it.
"""

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from babai_refine import cli, montecarlo, protocols
from babai_refine.lattice import Point2, cell_geometry

LATTICES = ("params_main", "params_hex", "params_square")
TRIALS = 1 << 16
SEED = 20170125

SIM_CASES = {
    "babai_only": {},
    "infinite": {},
    "12-2-3": {"n1": 2, "n2": 3},
    "12-300-700": {"n1": 300, "n2": 700},
    "21-4": {"n": 4},
    "21-999": {"n": 999},
}

INFINITE_ROUNDS = {
    "rounds-1": 1,
    "rounds-2": 2,
    "rounds-3": 3,
    "rounds-default": protocols.DEFAULT_MAX_ROUNDS,
}

SINGLE_ROUND_KERNELS = {
    "kernel-12": ("2-3", "300-700"),
    "kernel-21": ("4", "999"),
}

TRANSCRIPT_CASES = ("12-2-3", "12-300-700", "21-4", "21-999", "infinite")

CLI_CASES = {
    "sweep-grid4-budget8": ["sweep", "--grid", "4", "--budget", "8"],
    "geometry-rcos0.3": ["geometry", "--rcos", "0.3", "--format", "json"],
    "geometry-60deg": ["geometry", "--theta-deg", "60", "--format", "json"],
    "analyze-12-rcos0.3": ["analyze", "--scheme", "12", "--rcos", "0.3", "--n1", "2", "--n2", "3"],
    "analyze-12-61deg": ["analyze", "--scheme", "12", "--theta-deg", "61", "--n1", "1", "--n2", "5"],
    "analyze-21-rcos0.3": ["analyze", "--scheme", "21", "--rcos", "0.3", "--n", "4"],
    "analyze-21-89deg": ["analyze", "--scheme", "21", "--theta-deg", "89", "--n", "7"],
    "tradeoff-12": ["tradeoff", "--scheme", "12", "--rcos", "0.3", "--max-size", "16"],
}

GOLDEN = {
    "report/params_main/babai_only": "592f219d2b414a217266b2f04c0de930a2a2b1f7d330713e3a15d8a0b755782e",
    "report/params_main/infinite": "6368d4763940de628294519e124c1dfc49fff5b2bc8f1eb906b6f0b2a516af3c",
    "report/params_main/12-2-3": "1715b37cd8e08819f24c768f2d2dc20ed87ed31311ef8ae05f21457bcc359225",
    "report/params_main/12-300-700": "0a6fe199d0a0af6e053cb8c19dac1e20b86465439728ac34107a2b4b68720508",
    "report/params_main/21-4": "c35e3f930af88a76409dfc8fabde64f5c57e9a86140228e4158333a3843247ff",
    "report/params_main/21-999": "ac7637082a9a59cc33a0d5d1db9a949dd57eabb03b82f733507a45fb8f94834f",
    "report/params_hex/babai_only": "8e92a03d107dd86a0c3c74422ea1c685fb3a3b64232b2d4fcc4110a3d32df2d6",
    "report/params_hex/infinite": "208ec98b3fee5bed350dfef9bb6cc8e774989ec0e6b86ae5cd761da752f5d1bd",
    "report/params_hex/12-2-3": "829f5d43f4a0781dcd05bd1a7a8769571bde350d73e4ba3297e259d2e4ed5aa1",
    "report/params_hex/12-300-700": "684695352260d95524b0c28672c7548fad442d0fc258db3d79250f074e417c3c",
    "report/params_hex/21-4": "b170cb26e05cfe37b10eba191c617cfe99313fc3cfffdac4e10ff68379badcb1",
    "report/params_hex/21-999": "ead507581daddd5cd80cd69fd71296f85d08db7fffad2f6907d65e8e0da44cac",
    "report/params_square/babai_only": "6f7a611c1cc42ebc7d44382b7be7429481634ac599849e6138fb6bed6184db7b",
    "report/params_square/infinite": "b08e33c10a65af552c4a7b1cebc029117e6da3f557aee13552bb5d38c7b5f85c",
    "report/params_square/12-2-3": "5cf4f2f8390c278a5ad8efde3a2dab549179013f8840c273e525892fe219df32",
    "report/params_square/12-300-700": "d4ec1c9dbf7563e277ee3a91b1f30882860bff08c9808433ba2302828c24701f",
    "report/params_square/21-4": "50d18d8e761cb286a1d934e1de08d7071ff5ebe633da394fb15f82c25d7897a7",
    "report/params_square/21-999": "9721c51d822acc30cc689aa1adae5fdf167f7608f73717f256cd196eb5e37ecd",
    "kernel-infinite/params_main/rounds-1": "85fb93cd890bf54a1ff8406ff6d4b522d46e626fd12cb3adf43750dc3c6b4700",
    "kernel-infinite/params_main/rounds-2": "40b00a58e802614a90c3f242821f41d53424efffff4c752ed00a641491c652c0",
    "kernel-infinite/params_main/rounds-3": "92ccec1961c0055ae59e011d42605e1d2c674565d7a609a2f219b3a241e426ea",
    "kernel-infinite/params_main/rounds-default": "ec9a04f3932144e3059b863024651ee521ed1e4085b6622fea1d4f1c2d8e3c08",
    "kernel-infinite/params_hex/rounds-1": "dfdf3109dcb81333bfa73930aad6167dd26a3f1e55182ad1616c8f69717f84ef",
    "kernel-infinite/params_hex/rounds-2": "d6cd4fdcab36bb2d961d34a3c906ae945a604aba2a154ea9c2c581e8571ba76c",
    "kernel-infinite/params_hex/rounds-3": "6b3c61009f6728d400f69a00941e1a3101168acbdbf186d93700ce1d1c009a0a",
    "kernel-infinite/params_hex/rounds-default": "fb02d1d7bcc42d5d2f8a399c6a78146df45093fff8fe71fb57facb08c010633d",
    "kernel-infinite/params_square/rounds-1": "05c40a1889878939b4074d34a2a2abb82663b53e0164e7dd68f521182849358c",
    "kernel-infinite/params_square/rounds-2": "05c40a1889878939b4074d34a2a2abb82663b53e0164e7dd68f521182849358c",
    "kernel-infinite/params_square/rounds-3": "05c40a1889878939b4074d34a2a2abb82663b53e0164e7dd68f521182849358c",
    "kernel-infinite/params_square/rounds-default": "05c40a1889878939b4074d34a2a2abb82663b53e0164e7dd68f521182849358c",
    "kernel-12/params_main/2-3": "a997b8addb409dec97c30dbc34a1e4b4d9169cf4af4b17eb266e60ff8bf22255",
    "kernel-12/params_main/300-700": "f1c31cde1f9dab5deb2a391acc6f90b1bc21474470ccdc6153357bc9113638f1",
    "kernel-12/params_hex/2-3": "104298607e84606e7a4dba9266214afd2d1bdc674782c9e9839040dda37bbe31",
    "kernel-12/params_hex/300-700": "60aeb77e12aa8a2d138327352b4bbf4e800c6a5d493e44bc5be87a6d98a654b1",
    "kernel-12/params_square/2-3": "dcc9faf2380392dd201c805b47212361ed5814f228888d9ca8e2aa756936e5c5",
    "kernel-12/params_square/300-700": "6d54b107ccfb3739b6d058c081291034cb0ed2eee08e23409ab97193649af29d",
    "kernel-21/params_main/4": "558e7d4f4fc1cdcf0cd19b95d8de2d99abfff21c4054cae4bf63ee0b7ae852e3",
    "kernel-21/params_main/999": "1581aab53e1a907bf6141df9d6fde2d686319b0c2191c2ba46e27cfdbdd9c5a0",
    "kernel-21/params_hex/4": "f4fb9901772dec6c3b84d1dfa7eaed6731ba0f1ee96f11870f51aa05d46bab65",
    "kernel-21/params_hex/999": "10d9fd3405d9faa7ea92434c3ba07bdbd3841a6ed58aed0de1d3fc6bd204793a",
    "kernel-21/params_square/4": "57ba372f04bb5b449c9591ec343373e08dba77f252100a9116844daf44089acb",
    "kernel-21/params_square/999": "57ba372f04bb5b449c9591ec343373e08dba77f252100a9116844daf44089acb",
    "transcripts/params_main/12-2-3": "9ed14691b53022aed494c7e6643532f807651f4e618e504c446ff4475caf7b9b",
    "transcripts/params_main/12-300-700": "530c7163b7e9b46dc56138543a308c69e8b54eb66fd054cd6aa7131ff153b6b7",
    "transcripts/params_main/21-4": "f52fab285ea2cb5171f9fc17515a9a6fb30dc0b2e78d79713f83640afbc8ae53",
    "transcripts/params_main/21-999": "4f31b18641716be078a045975958bb8b6967a99c5039dfc50f9384968e27bbb1",
    "transcripts/params_main/infinite": "92ed4a6e557f168d1ab5461f272dc5cc8296523d6942a71cf755cf6e29a5daa7",
    "transcripts/params_hex/12-2-3": "473609373a9ea2790dc11684e19aca197bfc2b12631a4b2c07771945a946f8cf",
    "transcripts/params_hex/12-300-700": "fa51f036dec82a731f6114b810a744dfb43ff343fe88429e8f46713939694b89",
    "transcripts/params_hex/21-4": "16f159a58787cb90214eb95f4ae3044abf40ffe6330efe1b71028056d9546021",
    "transcripts/params_hex/21-999": "9f3785f33770cf0591b67cbb06ad9f047f43b50faa0b1653939b7f9c6e2f22e2",
    "transcripts/params_hex/infinite": "23508fe8fd6a8d0f4bd92644838fecdb5bd47616f7d4afb4b04d532a931e46f9",
    "transcripts/params_square/12-2-3": "41c0f636cbb7a45c5ca0dbf43b3f11522522a450d5d7749219e846a7a57a1de8",
    "transcripts/params_square/12-300-700": "fc923db7a24f3c585fff250a132b8e06a41354d88901b127aa933ec06cd7056c",
    "transcripts/params_square/21-4": "6032b7d862ed63ff3f9c2bd81f3f5eef410c5c73c51a0976a692f058bcdd8c48",
    "transcripts/params_square/21-999": "0b8559c4f97b82f70fb96a6e5986f89a32ce729f03e37849a3b0e5fbd69eecb7",
    "transcripts/params_square/infinite": "50b71404d942c8ae1f8d0426ed615db6cf5c0193778fdeeac711b2fd4c78f4de",
    "cli/sweep-grid4-budget8": "762f67fac7b842653daf284369c734b1d1b65c033b2f87d3efe8d24a72a3a4cf",
    "cli/geometry-rcos0.3": "79a3d103df3e175f9fca9bdf577aa6426bc80c056554ebb552ef1a7012bfe081",
    "cli/geometry-60deg": "3c9706f8688be25c1845db6096afae0e24584b5f2dd56c01b6776a8570a73d59",
    "cli/analyze-12-rcos0.3": "fe4e0c345acbfc36c6fd66e9113046a476a31e12e7a7e7d4bfe1b88648b29597",
    "cli/analyze-12-61deg": "90efd2d5b2ebed7dbcf9983741c22fcfeb357e3193bdad7417ce74d56fd0de79",
    "cli/analyze-21-rcos0.3": "13ea7e077a253a459d380cfca3717c4b3b398c7ab490a47a7cfe6d60d63cb57f",
    "cli/analyze-21-89deg": "7cb66b40c9ce2fa22c8daeaf920328ed0116db0571b981d28eaf7bf0b7146e85",
    "cli/tradeoff-12": "27990415982f9af1d090d4d49ce520448815a0e9e03a794cee6438a063905af8",
}


def _scheme(case: str) -> str:
    return case.split("-")[0]


def _simulate(params, case: str) -> str:
    scheme = case if case in ("babai_only", "infinite") else _scheme(case)
    config = montecarlo.SimConfig(
        params=params, scheme=scheme, trials=TRIALS, seed=SEED, **SIM_CASES[case]
    )
    return json.dumps(dataclasses.asdict(montecarlo.simulate(config)))


def _arrays(out: dict[str, np.ndarray]) -> str:
    """dtype, shape and SHA-256 of each output array of a batch kernel."""
    return "\n".join(
        f"{name} {a.dtype.str} {a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}"
        for name, a in sorted(out.items())
    )


def _cell_points(params):
    return montecarlo.sample_cell_arrays(params, np.arange(TRIALS, dtype=np.uint64), SEED)


def _infinite_kernel(params, case: str) -> str:
    """Every run_batch_infinite output array.

    At max_rounds=1 no bisection round runs, so every trial that entered an
    error rectangle ends unhalted and takes the exact side-test fallback.
    """
    x1, x2 = _cell_points(params)
    return _arrays(montecarlo.run_batch_infinite(params, x1, x2, INFINITE_ROUNDS[case]))


def _single_round_kernel(params, kind: str, case: str) -> str:
    """Every run_batch_12 / run_batch_21 output array at the case's sizes."""
    x1, x2 = _cell_points(params)
    sizes = [int(s) for s in case.split("-")]
    if kind == "kernel-12":
        return _arrays(montecarlo.run_batch_12(params, *sizes, x1, x2))
    return _arrays(montecarlo.run_batch_21(params, *sizes, x1, x2))


def _points(params) -> list[Point2]:
    """Off-threshold points covering every decision region.

    A 9 x 9 grid over the cell (its middle row and column fall in the centre
    bins), the cross product of three interior fractions of each of the five
    x1 intervals and the three x2 bands (some of which are only ~1e-6 wide
    near the endpoint lattices), and 60 seeded uniform points.
    """
    g = cell_geometry(params)
    h = params.rsin
    grid = [(i + 0.5) / 9.0 - 0.5 for i in range(9)]
    pts = [Point2(a, b * h) for a in grid for b in grid]
    x1_edges = (-0.5, g.t_m2, g.t_m1, g.t_1, g.t_2, 0.5)
    x2_edges = (-h / 2.0, g.tau_m1, g.tau_1, h / 2.0)
    fracs = (0.13, 0.5, 0.87)

    def inside(edges):
        return [a + f * (b - a) for a, b in zip(edges[:-1], edges[1:]) for f in fracs]

    pts += [Point2(a, b) for a in inside(x1_edges) for b in inside(x2_edges)]
    rng = np.random.default_rng(SEED)
    for u1, u2 in rng.uniform(-0.5, 0.5, size=(60, 2)):
        pts.append(Point2(-float(u1), -float(u2) * h))
    return pts


def _transcripts(params, case: str) -> str:
    sizes = [int(s) for s in case.split("-")[1:]]
    scheme = _scheme(case)
    if scheme == "12":
        q = protocols.quantizer_12(params, *sizes)
        run = lambda x: protocols.run_single_round_12(x, params, q)
    elif scheme == "21":
        q = protocols.quantizer_21(params, *sizes)
        run = lambda x: protocols.run_single_round_21(x, params, q)
    else:
        q = None
        run = lambda x: protocols.run_infinite_rounds(x, params)
    lines = []
    for x in _points(params):
        t = run(x)
        replayed = protocols.replay_decision(t.messages, params, scheme, q)
        lines.append(protocols.transcript_to_json(t) + f" {list(replayed)}")
    return "\n".join(lines)


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render(key: str, request=None) -> str:
    kind, *rest = key.split("/")
    if kind == "cli":
        return _cli(CLI_CASES[rest[0]])
    lattice, case = rest
    params = request.getfixturevalue(lattice)
    if kind == "report":
        return _simulate(params, case)
    if kind == "kernel-infinite":
        return _infinite_kernel(params, case)
    if kind in SINGLE_ROUND_KERNELS:
        return _single_round_kernel(params, kind, case)
    return _transcripts(params, case)


KEYS = (
    [f"report/{lat}/{case}" for lat in LATTICES for case in SIM_CASES]
    + [f"kernel-infinite/{lat}/{case}" for lat in LATTICES for case in INFINITE_ROUNDS]
    + [
        f"{kind}/{lat}/{case}"
        for kind, cases in SINGLE_ROUND_KERNELS.items()
        for lat in LATTICES
        for case in cases
    ]
    + [f"transcripts/{lat}/{case}" for lat in LATTICES for case in TRANSCRIPT_CASES]
    + [f"cli/{name}" for name in CLI_CASES]
)


@pytest.mark.parametrize("key", KEYS)
def test_golden_digest(key, request):
    assert _digest(render(key, request)) == GOLDEN[key]
