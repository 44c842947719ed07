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
from babai_refine.lattice import Point2, cell_geometry, cross_section

LATTICES = ("params_main", "params_hex", "params_square")
TRIALS = 1 << 16
# a report over more than one reduction chunk and many per-trial blocks
CHUNKED_TRIALS = (1 << 20) + 12345
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
BOUNDARY_CASES = TRANSCRIPT_CASES[:-1]

CLI_CASES = {
    "sweep-grid4-budget8": ["sweep", "--grid", "4", "--budget", "8"],
    "sweep-grid50-budget8": ["sweep", "--rho", "1", "--grid", "50", "--budget", "8"],
    "sweep-grid40-budget3": ["sweep", "--grid", "40", "--budget", "3"],
    "sweep-rho1.2-grid20-budget6": ["sweep", "--rho", "1.2", "--grid", "20", "--budget", "6"],
    # the empirical columns: every row's 21 size and the first row's 12 size
    # are clipped to the simulated-size cap, with the derived per-row seeds
    "sweep-grid4-budget8-trials4096": [
        "sweep", "--rho", "1", "--grid", "4", "--budget", "8", "--trials", "4096", "--seed", "7"
    ],
    "geometry-rcos0.3": ["geometry", "--rcos", "0.3", "--format", "json"],
    "geometry-60deg": ["geometry", "--theta-deg", "60", "--format", "json"],
    "geometry-rcos1e-6": ["geometry", "--rcos", "1e-6", "--format", "text"],
    "analyze-12-rcos0.3": ["analyze", "--scheme", "12", "--rcos", "0.3", "--n1", "2", "--n2", "3"],
    "analyze-12-61deg": ["analyze", "--scheme", "12", "--theta-deg", "61", "--n1", "1", "--n2", "5"],
    "analyze-21-rcos0.3": ["analyze", "--scheme", "21", "--rcos", "0.3", "--n", "4"],
    "analyze-21-89deg": ["analyze", "--scheme", "21", "--theta-deg", "89", "--n", "7"],
    # clamped to pi/2 - 1e-6, where kappa_21 is about 7.21352e-7
    "analyze-21-90deg": ["analyze", "--scheme", "21", "--theta-deg", "90"],
    "tradeoff-12": ["tradeoff", "--scheme", "12", "--rcos", "0.3", "--max-size", "16"],
    "analyze-inf-rcos0.3": ["analyze", "--scheme", "inf", "--rcos", "0.3"],
    "analyze-babai-rcos0.3": ["analyze", "--scheme", "babai", "--rcos", "0.3"],
    # clamped to pi/2 - 1e-6, where pe_babai = H1/(2H) is about 2.4999975e-7
    "analyze-babai-90deg": ["analyze", "--scheme", "babai", "--theta-deg", "90"],
    "tradeoff-21": ["tradeoff", "--scheme", "21", "--rcos", "0.3", "--max-size", "40"],
    "tradeoff-21-budget5": [
        "tradeoff", "--scheme", "21", "--rcos", "0.3", "--max-size", "40", "--budget", "5"
    ],
    "tradeoff-12-budget4": [
        "tradeoff", "--scheme", "12", "--rcos", "0.3", "--max-size", "9", "--budget", "4"
    ],
}

GOLDEN = {
    "report/params_main/babai_only": "592f219d2b414a217266b2f04c0de930a2a2b1f7d330713e3a15d8a0b755782e",
    "report/params_main/infinite": "6368d4763940de628294519e124c1dfc49fff5b2bc8f1eb906b6f0b2a516af3c",
    "report/params_main/12-2-3": "5fc537917748548a3a7b2640024d2577a454683c33001075ee7804cb99f984bd",
    "report/params_main/12-300-700": "db33991589680a047bb77b8567bd68ee689b92774ccafb9fb2d0a26f118219a5",
    "report/params_main/21-4": "34378b8f33d63753a2aea17b3a5090b85c0ba13aebce994e178fb322857eaecd",
    "report/params_main/21-999": "878c7feee511eed1626181c9a97ecf9ebafe403860c726e968d013a84740e8c2",
    "report/params_hex/babai_only": "9dd5234e4fc9c1b3bf07e0df9575c5e89ff9172b8e80341ec70aefb9493f4856",
    "report/params_hex/infinite": "208ec98b3fee5bed350dfef9bb6cc8e774989ec0e6b86ae5cd761da752f5d1bd",
    "report/params_hex/12-2-3": "e6e155af735453254babb89aa9eae1c13fb5a09ca141123fd73185a6cbdb4227",
    "report/params_hex/12-300-700": "855e2d8aff9f5c663ce0df7be58f878b73943e74467b78c3163a688638598cad",
    "report/params_hex/21-4": "025030b0886236175df97e76263d3c38f0df54a1d75cb8c60d2e511a22bbe670",
    "report/params_hex/21-999": "4226d51a73194fd2dee10792ebdb7f268c65aed51c1c3b38b5b134358953db4b",
    "report/params_square/babai_only": "424d09479412c30dfb28248e8d3d50c812b7b2c9b0dc5854eb87a66d88f83bfe",
    "report/params_square/infinite": "b08e33c10a65af552c4a7b1cebc029117e6da3f557aee13552bb5d38c7b5f85c",
    "report/params_square/12-2-3": "6463c4658309c19c0c3a9f480c462ff5520637e3229bc3d081a1aafbc0c79205",
    "report/params_square/12-300-700": "09c8c2b6735de773744156cff1a62434dbcebaf7243f2c9943ec8a6e342d54e9",
    "report/params_square/21-4": "5fd4890b3a9550b8ae7cf59a485187dfeebc3c3cce78c23039b473d4bd479fae",
    "report/params_square/21-999": "9146e0b1301718ef12e011761ea923a6f7b65bd9a4de5c7178697367a8068257",
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
    "kernel-12/params_main/300-700": "2ab081239138f92a93ccea418d467350c6331fb7f4358cac24b28855faec8d55",
    "kernel-12/params_hex/2-3": "104298607e84606e7a4dba9266214afd2d1bdc674782c9e9839040dda37bbe31",
    "kernel-12/params_hex/300-700": "81adeaa6e046b139bf7f591df91552c4ee2d1413794104c4a2e41736b0220a91",
    "kernel-12/params_square/2-3": "dcc9faf2380392dd201c805b47212361ed5814f228888d9ca8e2aa756936e5c5",
    "kernel-12/params_square/300-700": "6d54b107ccfb3739b6d058c081291034cb0ed2eee08e23409ab97193649af29d",
    "kernel-21/params_main/4": "558e7d4f4fc1cdcf0cd19b95d8de2d99abfff21c4054cae4bf63ee0b7ae852e3",
    "kernel-21/params_main/999": "c7b2437fc9e3c40ae570b3fd6a02d2c26b95e680ece8863294fb287bcbad12b5",
    "kernel-21/params_hex/4": "f4fb9901772dec6c3b84d1dfa7eaed6731ba0f1ee96f11870f51aa05d46bab65",
    "kernel-21/params_hex/999": "6abf7e016df142f69f8ac0be7eda744021e41237e040463e3beccd1cd0f2a164",
    "kernel-21/params_square/4": "57ba372f04bb5b449c9591ec343373e08dba77f252100a9116844daf44089acb",
    "kernel-21/params_square/999": "57ba372f04bb5b449c9591ec343373e08dba77f252100a9116844daf44089acb",
    "transcripts/params_main/12-2-3": "9ed14691b53022aed494c7e6643532f807651f4e618e504c446ff4475caf7b9b",
    "transcripts/params_main/12-300-700": "530c7163b7e9b46dc56138543a308c69e8b54eb66fd054cd6aa7131ff153b6b7",
    "transcripts/params_main/21-4": "f52fab285ea2cb5171f9fc17515a9a6fb30dc0b2e78d79713f83640afbc8ae53",
    "transcripts/params_main/21-999": "4f31b18641716be078a045975958bb8b6967a99c5039dfc50f9384968e27bbb1",
    "transcripts/params_main/infinite": "acbdb6c22a85e181a15a7efd2f40378db44bd0c5332f756af4cf2e79886aec15",
    "transcripts/params_hex/12-2-3": "473609373a9ea2790dc11684e19aca197bfc2b12631a4b2c07771945a946f8cf",
    "transcripts/params_hex/12-300-700": "fa51f036dec82a731f6114b810a744dfb43ff343fe88429e8f46713939694b89",
    "transcripts/params_hex/21-4": "16f159a58787cb90214eb95f4ae3044abf40ffe6330efe1b71028056d9546021",
    "transcripts/params_hex/21-999": "9f3785f33770cf0591b67cbb06ad9f047f43b50faa0b1653939b7f9c6e2f22e2",
    "transcripts/params_hex/infinite": "23508fe8fd6a8d0f4bd92644838fecdb5bd47616f7d4afb4b04d532a931e46f9",
    "transcripts/params_square/12-2-3": "41c0f636cbb7a45c5ca0dbf43b3f11522522a450d5d7749219e846a7a57a1de8",
    "transcripts/params_square/12-300-700": "fc923db7a24f3c585fff250a132b8e06a41354d88901b127aa933ec06cd7056c",
    "transcripts/params_square/21-4": "6032b7d862ed63ff3f9c2bd81f3f5eef410c5c73c51a0976a692f058bcdd8c48",
    "transcripts/params_square/21-999": "0b8559c4f97b82f70fb96a6e5986f89a32ce729f03e37849a3b0e5fbd69eecb7",
    "transcripts/params_square/infinite": "227697e19c5d26c5190f8e3a7592607e8530b8fde98b53369f95bb8e83892ae0",
    "report-chunked/params_main/babai_only": "01f7929ec495e924a1a178b3f85da62706fc61a3eabccefece8c19e91daf891e",
    "report-chunked/params_main/infinite": "dfe6d946edfcc98fcc9d5f242b494e0e2aa05f8c1ba6108782e1f292641b243e",
    "report-chunked/params_main/12-2-3": "b5ff295111e31238a57ed3103169816e2b5a9f30ad7a787792fb2d4579bc41d4",
    "report-chunked/params_main/12-300-700": "46a9fc41179214dd569190d9f8fbdfbc9bc6225a541d7c38237e59fde90c2dee",
    "report-chunked/params_main/21-4": "b15b21aca6daf2d721081cadb3347e751cd1785e0324172059b0ce4436fcb1a0",
    "report-chunked/params_main/21-999": "2d99db9f611508e31295768f74f08c6799f24cba84bac6630748250b815014a0",
    "cli/sweep-grid4-budget8": "2557793affd539c4bfa8f57d31d5f2f66e70e7767533b934d2bdb8a1eb69aae6",
    "cli/sweep-grid50-budget8": "513534140e96b61c63504971b3eec1e360e2f1c0cc2d6d91c297c16417a58d65",
    "cli/sweep-grid40-budget3": "09c39dad682c8a8c5c38b1d85af7cae5d6845b81b51f267682d2352fde497f32",
    "cli/sweep-rho1.2-grid20-budget6": "59fb84f95ce44cdcbf3d230a1a349014e7d1b061057f1fb40962fc35f3006819",
    "cli/sweep-grid4-budget8-trials4096": "721cace360faf56217a3018f843d46843402c8c295813220651848d4e51030a7",
    "cli/geometry-rcos0.3": "71722d5018505c2fbb9ae80f6fe2e0ddad7248338eda3537f3cd81b909355d17",
    "cli/geometry-60deg": "ca9afba6f9155e630181371ece9fab24b0b6a43988fa594a8efbb11cf9196119",
    "cli/geometry-rcos1e-6": "be78da4881a0bcb14d1680f2d6dd69d33ae861e77ffac22ac42a775ecc0fb643",
    "cli/analyze-12-rcos0.3": "16d2974139fe45a76c44ea202ab71427a040f757837af61a3d3985995147a061",
    "cli/analyze-12-61deg": "3393cd64f305f16b3e443c5754ad98dbcae5e2d763adf4c1742e551030af2826",
    "cli/analyze-21-rcos0.3": "28ffc9e4f10a29f3a2d2d8652728205d3fc70c6f4a23a7fcad985b49e48147b5",
    "cli/analyze-21-89deg": "0a8352ac04a006f1935590d45b9c41b41243a79819eb70e65f68e114eea1f1a9",
    "cli/analyze-21-90deg": "2b11bd9ff36825a3db0d91531026e72d34123db2ba832932f37819c6572199d0",
    "cli/tradeoff-12": "27990415982f9af1d090d4d49ce520448815a0e9e03a794cee6438a063905af8",
    "cli/analyze-inf-rcos0.3": "69863a87a46513538e368accf5bd1528ea606ea1cdf74de113b569543d1520a9",
    "cli/analyze-babai-rcos0.3": "1492e3d10cd15ca02d5a1f9712cf336e89960ae039b7c1fd7850aa81f1967e97",
    "cli/analyze-babai-90deg": "e9fafac27a4755527f8be4e380b45a346d08a8a3a0884ac530def83a3661754a",
    "cli/tradeoff-21": "f73fd83e5c5c400862ca8a602ac6e77c701700a581e94bb83cc7251b1ff3be94",
    "cli/tradeoff-21-budget5": "64306aade5dd98e7dde6567c2608819a1190516bf7f4686c3ca5f3aff20d5106",
    "cli/tradeoff-12-budget4": "cfaf16fd7f9f41040bdfc8978560a05294dfadce2da3da3734fd9c1e181a07aa",
    "boundary/params_main/12-2-3": "a24baf802ab6b9b031b8c53ff109970ca343acd94bf0860ce0c04714f99e95d5",
    "boundary/params_main/12-300-700": "f555aceefd8e58ea808b12bc9bbc1840bd2540d778a7fa54c524855a0c7e95d9",
    "boundary/params_main/21-4": "20a9819288c45cec94ed22c180f77979010014a89cd19bd798778e6f725f037d",
    "boundary/params_main/21-999": "426a5f9065e6018c3a3ee78a39d59f785e2d886d40f55c9df9f0a4f0a4ba69e5",
    "boundary/params_hex/12-2-3": "8476e27072d6a58485632c3fefe30817fe04b8ccdd7f236fb5e37550ea133976",
    "boundary/params_hex/12-300-700": "324462fadd07ecd4a214f176acab256794d7b24e1c488608c531db7f9d129ee9",
    "boundary/params_hex/21-4": "d4f5dcf591fed42aae010a33a5c854d0482ab5c20a7ab188f8afb03551abb038",
    "boundary/params_hex/21-999": "b1822dfdabf2940d1296086f166af070d8c5b4e77c1deef311148716eaf12bb5",
    "boundary/params_square/12-2-3": "d3eb017f8f4fb74c669a83175dac77bf5d78a7dda5d0040fd899e3ec10eb3f48",
    "boundary/params_square/12-300-700": "f7460208fbf4cc3e84aab152b2af084c5072e8e52f593df106e38c816d96e72d",
    "boundary/params_square/21-4": "a0e169bf5aafd8023af123f09ca4416a9510246e465be4144348c08d40320857",
    "boundary/params_square/21-999": "d6d0b063616d47dd7da6b89901398da0186369e2d613154832e2a7eed9db6c26",
}


def _scheme(case: str) -> str:
    return case.split("-")[0]


def _simulate(params, case: str, trials: int = TRIALS) -> str:
    scheme = case if case in ("babai_only", "infinite") else _scheme(case)
    config = montecarlo.SimConfig(
        params=params, scheme=scheme, trials=trials, seed=SEED, **SIM_CASES[case]
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
        q = protocols.quantizer_12(params, *sizes)
        return _arrays(montecarlo.run_batch_12(params, q, x1, x2))
    q = protocols.quantizer_21(params, *sizes)
    return _arrays(montecarlo.run_batch_21(params, q, x1, x2))


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


def _boundary_points(params, q: protocols.Quantizer) -> list[Point2]:
    """Constructed points on the single-round decision boundaries.

    The binned coordinate exactly on every bin edge inside the cell (bins
    are half-open, so the edge belongs to the lower bin) with the other
    coordinate at three fixed fractions of its span; and the binned
    coordinate at every bin midpoint with the other exactly on that bin's
    finite lo and hi cuts.
    """
    h = params.rsin
    first_half, other_span = (0.5, h) if q.vertical else (h / 2.0, 1.0)
    edges = np.asarray(q.edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    table = cross_section(cell_geometry(params), mids, q.vertical)
    pairs = [
        (e, f * other_span) for e in q.edges if -first_half < e for f in (-0.45, 0.0, 0.45)
    ]
    for mid, lo, hi in zip(mids.tolist(), table.lo.tolist(), table.hi.tolist()):
        pairs += [(mid, cut) for cut in (lo, hi) if -other_span / 2.0 < cut <= other_span / 2.0]
    return [Point2(a, b) if q.vertical else Point2(b, a) for a, b in pairs]


def _transcripts(params, case: str, boundary: bool = False) -> str:
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
    for x in _boundary_points(params, q) if boundary else _points(params):
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
    if kind == "report-chunked":
        return _simulate(params, case, CHUNKED_TRIALS)
    if kind == "kernel-infinite":
        return _infinite_kernel(params, case)
    if kind in SINGLE_ROUND_KERNELS:
        return _single_round_kernel(params, kind, case)
    return _transcripts(params, case, boundary=kind == "boundary")


KEYS = (
    [f"report/{lat}/{case}" for lat in LATTICES for case in SIM_CASES]
    + [f"report-chunked/params_main/{case}" for case in SIM_CASES]
    + [f"kernel-infinite/{lat}/{case}" for lat in LATTICES for case in INFINITE_ROUNDS]
    + [
        f"{kind}/{lat}/{case}"
        for kind, cases in SINGLE_ROUND_KERNELS.items()
        for lat in LATTICES
        for case in cases
    ]
    + [f"transcripts/{lat}/{case}" for lat in LATTICES for case in TRANSCRIPT_CASES]
    + [f"boundary/{lat}/{case}" for lat in LATTICES for case in BOUNDARY_CASES]
    + [f"cli/{name}" for name in CLI_CASES]
)


@pytest.mark.parametrize("key", KEYS)
def test_golden_digest(key, request):
    assert _digest(render(key, request)) == GOLDEN[key]
