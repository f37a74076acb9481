"""Golden bits: the value and type of every precision-dependent function.

``GOLDEN`` was recorded from the implementation in which each function handed
its arithmetic to a ``body(mt, pi, real)`` callback, before those bodies were
inlined into ``with _context(cfg)`` blocks.  Each entry is a float's hex form
or an mpf's ``_mpf_`` tuple, so any change of a single bit, or of float
against mpf, fails.  To re-record after a declared change of bits, print
``{key: _bits(fn(PrecisionConfig(p))) for ...}`` and replace the table.
"""

import hashlib

import mpmath
import pytest

from cotsum import PrecisionConfig, ReducedFraction, checks
from cotsum.cli import main
from cotsum.asymptotics import (
    c0_main_terms,
    estimate_C0,
    g_partial,
    inner_block_expansion,
    r_series,
    s_sum_asymptotic,
    s_sum_direct,
)
from cotsum.exact import (
    _cot_row_sums,
    _floor_class_sums,
    _unit_row,
    c0,
    estermann_at_zero,
)
from cotsum.numerics import _context, euler_gamma, log_two_pi, sum_strategy


def _frac_via_cot_sin(cfg):
    """{3/10} = 1/2 - s/20, s the cot-sin sum of b = 10 at step 3."""
    (s,) = _cot_row_sums(10, [3], 2, cfg)
    with _context(cfg) as (mt, pi, real):
        return real(1) / 2 - s / 20


CASES = {
    "c0_3_17": lambda cfg: c0(ReducedFraction(3, 17), cfg),
    "c0_1_64": lambda cfg: c0(ReducedFraction(1, 64), cfg),
    "estermann_odd": lambda cfg: estermann_at_zero(ReducedFraction(2, 7), 3, cfg),
    "estermann_alpha0": lambda cfg: estermann_at_zero(ReducedFraction(3, 11), 0, cfg),
    "estermann_alpha2": lambda cfg: estermann_at_zero(ReducedFraction(3, 11), 2, cfg),
    "estermann_alpha4": lambda cfg: estermann_at_zero(ReducedFraction(5, 12), 4, cfg),
    "floor_class_sums": lambda cfg: sorted(
        _floor_class_sums(12, range(12), cfg).items()
    ),
    "floor_class_sum": lambda cfg: _floor_class_sums(5, {2}, cfg)[2],
    # the cot-cos sum of b = 10 at step 2*3 mod 10, which vanishes identically
    "cot_cos": lambda cfg: _cot_row_sums(10, [6], 1, cfg)[0],
    "frac_via_cot_sin": _frac_via_cot_sin,
    "cot_row": lambda cfg: _unit_row(9, cfg.working_precision)[0],
    "inner_block_expansion": lambda cfg: inner_block_expansion(3, 10, cfg),
    "s_sum_direct": lambda cfg: s_sum_direct(60, 10, cfg),
    "g_partial": lambda cfg: g_partial(7, 100, cfg),
    "r_series": lambda cfg: r_series([10], 200, cfg)[0],
    "estimate_C0": lambda cfg: estimate_C0([10, 20, 40], 200, cfg)[0],
    "s_sum_asymptotic": lambda cfg: s_sum_asymptotic(100, 10, 0.1, cfg),
    "c0_main_terms": lambda cfg: c0_main_terms(1000, cfg),
    "euler_gamma": euler_gamma,
    "log_two_pi": log_two_pi,
    "sum_strategy_list": lambda cfg: sum_strategy([0.1] * 10, cfg),
    "sum_strategy_gen": lambda cfg: sum_strategy((1 / k for k in range(1, 50)), cfg),
}


def _bits(x):
    """A float as its hex form, an mpf as its _mpf_ tuple, recursively."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, mpmath.mpf):
        return ("mpf", x._mpf_)
    if isinstance(x, (bool, int, type(None))):
        return x
    return tuple(_bits(v) for v in x)


GOLDEN = {
    "c0_1_64@53": ("float", "0x1.dae4e2c85e001p+5"),
    "c0_1_64@113": ("mpf", (0, 4815998179512715617829196554078229, -106, 112)),
    "c0_3_17@53": ("float", "0x1.088ffcbf5d16cp+1"),
    "c0_3_17@113": ("mpf", (0, 5365963984170486698544434624468235, -111, 113)),
    "c0_main_terms@53": ("float", "0x1.c161a6dc80dbbp+10"),
    "c0_main_terms@113": ("mpf", (0, 4557269342443654728639660457643963, -101, 112)),
    "cot_cos@53": ("float", "-0x1.4000000000000p-52"),
    "cot_cos@113": ("mpf", (1, 19, -115, 5)),
    "cot_row@53": (("float", "0x1.5fad570f872d9p+1"),
                   ("float", "0x1.3116c3711527ep+0"),
                   ("float", "0x1.279a74590331cp-1"),
                   ("float", "0x1.691e1ebc5cbbcp-3"),
                   ("float", "-0x1.691e1ebc5cbbcp-3"),
                   ("float", "-0x1.279a74590331cp-1"),
                   ("float", "-0x1.3116c3711527ep+0"),
                   ("float", "-0x1.5fad570f872d9p+1")),
    "cot_row@113": (("mpf", (0, 7132859186964805082139495814128665, -111, 113)),
                    ("mpf", (0, 3093969217487255592648870717198661, -111, 112)),
                    ("mpf", (0, 2997773988987530938558832353574291, -112, 112)),
                    ("mpf", (0, 7324336224059950693561974934902915, -115, 113)),
                    ("mpf", (1, 7324336224059950693561974934902915, -115, 113)),
                    ("mpf", (1, 2997773988987530938558832353574291, -112, 112)),
                    ("mpf", (1, 3093969217487255592648870717198661, -111, 112)),
                    ("mpf", (1, 7132859186964805082139495814128665, -111, 113))),
    "estermann_alpha0@53": (("float", "0x1.0000000000000p-2"),
                            ("float", "0x1.c2d32ba6a750ep-2")),
    "estermann_alpha0@113": (("mpf", (0, 1, -2, 1)),
                             ("mpf",
                              (0, 4571907486630498641670315965618327, -113, 112))),
    "estermann_alpha2@53": (("float", "0x0.0p+0"),
                            ("float", "-0x1.4f5e25c2334f5p+1")),
    "estermann_alpha2@113": (("mpf", (0, 0, 0, 0)),
                             ("mpf",
                              (1, 6802066350218929149462700795564021, -111, 113))),
    "estermann_alpha4@53": (("float", "0x0.0p+0"),
                            ("float", "0x1.6883a26904a89p+6")),
    "estermann_alpha4@113": (("mpf", (0, 0, 0, 0)),
                             ("mpf",
                              (0, 7312096610134768956827212340661641, -106, 113))),
    "estermann_odd@53": (("float", "-0x1.1111111111111p-8"), ("float", "0x0.0p+0")),
    "estermann_odd@113": (("mpf", (1, 5538449982437149470432529417834769, -120, 113)),
                          ("mpf", (0, 0, 0, 0))),
    "estimate_C0@53": (("float", "-0x1.42b348c52d5d8p-1"),
                       ("float", "0x1.d83ee0c25f99ap-14")),
    "estimate_C0@113": (("mpf", (1, 3272570127379547429858092681782853, -112, 112)),
                        ("float", "0x1.d83ee0c0d86d8p-14")),
    "euler_gamma@53": ("float", "0x1.2788cfc6fb619p-1"),
    "euler_gamma@113": ("mpf", (0, 1534502442785444268401093204211049879, -121, 121)),
    "floor_class_sum@53": (
        ("float", "-0x1.999999999999ap-57"),
        ("float", "-0x1.999999999999ap-55"),
    ),
    "floor_class_sum@113": (
        ("mpf", (1, 1, -115, 1)),
        ("mpf", (1, 4153837486827862102824397063376077, -227, 112)),
    ),
    "floor_class_sums@53": (
        (0, (("float", "0x1.d555555555555p-2"),
             ("float", "0x0.0p+0"))),
        (1, (("float", "0x1.8000000000000p-2"),
             ("float", "-0x1.132277bbe4daap-54"))),
        (2, (("float", "0x1.2aaaaaaaaaaaap-2"),
             ("float", "0x1.5555555555555p-56"))),
        (3, (("float", "0x1.aaaaaaaaaaaabp-3"),
             ("float", "-0x1.32277bbe4daa1p-58"))),
        (4, (("float", "0x1.ffffffffffffcp-4"),
             ("float", "0x1.5555555555555p-58"))),
        (5, (("float", "0x1.555555555554fp-5"),
             ("float", "-0x1.dcd22668f854cp-58"))),
        (6, (("float", "-0x1.5555555555555p-5"),
             ("float", "0x1.0000000000000p-55"))),
        (7, (("float", "-0x1.0000000000001p-3"),
             ("float", "0x1.2f1065dd8ba01p-55"))),
        (8, (("float", "-0x1.aaaaaaaaaaaacp-3"),
             ("float", "0x1.2000000000000p-53"))),
        (9, (("float", "-0x1.2aaaaaaaaaaabp-2"),
             ("float", "0x1.af1065dd8ba01p-55"))),
        (10, (("float", "-0x1.8000000000000p-2"),
              ("float", "0x1.6aaaaaaaaaaabp-54"))),
        (11, (("float", "-0x1.d555555555557p-2"),
              ("float", "0x1.4cdd88441b256p-54"))),
    ),
    "floor_class_sums@113": (
        (0, (("mpf", (0, 9519210907313850652305909936903509, -114, 113)),
             ("mpf", (0, 0, 0, 0)))),
        (1, (("mpf", (0, 7788445287802241442795744493830145, -114, 113)),
             ("mpf", (1, 9562249747832096644292937799008487, -226, 113)))),
        (2, (("mpf", (0, 6057679668290632233285579050756779, -114, 113)),
             ("mpf", (1, 1, -114, 1)))),
        (3, (("mpf", (0, 8653828097558046047550827215366827, -115, 113)),
             ("mpf", (1, 5278374539571319612504552053430051, -227, 113)))),
        (4, (("mpf", (0, 5192296858534827628530496329220097, -115, 113)),
             ("mpf", (0, 0, 0, 0)))),
        (5, (("mpf", (0, 865382809755804604755082721536683, -114, 110)),
             ("mpf", (1, 7441831563960831124392258857271757, -227, 113)))),
        (6, (("mpf", (1, 6923062478046436838040661772293461, -117, 113)),
             ("mpf", (0, 1, -116, 1)))),
        (7, (("mpf", (1, 5192296858534827628530496329220099, -115, 113)),
             ("mpf", (1, 5364452220607811596478607777640005, -228, 113)))),
        (8, (("mpf", (1, 8653828097558046047550827215366827, -115, 113)),
             ("mpf", (1, 8653828097558046047550827215366827, -227, 113)))),
        (9, (("mpf", (1, 6057679668290632233285579050756779, -114, 113)),
             ("mpf", (0, 10212438354996671289112881210020283, -228, 113)))),
        (10, (("mpf", (1, 7788445287802241442795744493830145, -114, 113)),
              ("mpf", (0, 6923062478046436838040661772293461, -228, 113)))),
        (11, (("mpf", (1, 1189901363414231331538238742112939, -111, 110)),
              ("mpf", (0, 9433133226277358668331854212693555, -227, 113)))),
    ),
    "frac_via_cot_sin@53": ("float", "0x1.3333333333332p-2"),
    "frac_via_cot_sin@113": ("mpf", (0, 6230756230241793154236595595064115, -114, 113)),
    "g_partial@53": ("float", "0x1.7761eb9a5e8e6p+2"),
    "g_partial@113": ("mpf", (0, 7613661648731672856322556183095871, -110, 113)),
    "inner_block_expansion@53": ("float", "0x1.2ae503f309273p-2"),
    "inner_block_expansion@113": ("mpf",
                                  (0, 6062302533371192139879965441866295, -114, 113)),
    "log_two_pi@53": ("float", "0x1.d67f1c864beb5p+0"),
    "log_two_pi@113": ("mpf", (0, 2442957649482355028246220439649006145, -120, 121)),
    "r_series@53": (("float", "0x1.1d00f54e9e21fp-2"),
                    ("float", "0x1.48c3582a00000p-23")),
    "r_series@113": (("mpf", (0, 2890281327955552276811485058886245, -113, 112)),
                     ("float", "0x1.48c355107ff5fp-23")),
    "s_sum_asymptotic@53": ("float", "0x1.6029e0cba92a2p+7"),
    "s_sum_asymptotic@113": ("mpf", (0, 7142726106001471311919033151697181, -105, 113)),
    "s_sum_direct@53": ("float", "0x1.5b97baa39cdc8p+6"),
    "s_sum_direct@113": ("mpf", (0, 1762504336753569102031903389480639, -104, 111)),
    "sum_strategy_gen@53": ("float", "0x1.1eab4cde0c624p+2"),
    "sum_strategy_gen@113": ("mpf", (0, 1291043039527445437, -58, 61)),
    "sum_strategy_list@53": ("float", "0x1.0000000000000p+0"),
    "sum_strategy_list@113": ("mpf", (0, 18014398509481985, -54, 55)),
}


@pytest.mark.parametrize("precision", [53, 113])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bits_are_unchanged(name, precision):
    got = _bits(CASES[name](PrecisionConfig(working_precision=precision)))
    assert got == GOLDEN[f"{name}@{precision}"]


# Whole identity suites, up to b where a unit-row gather takes more than one
# slice (at b = 40, every step from 33 up).  Per (suite, size, precision):
# the sha256 of repr(suite(size, DEFAULT_SEED, cfg)), which holds every case's
# residue, and the worst residues as float hex.  Each residue is formed at the
# working precision and rounded once, so at 113 bits prop1's fractional parts
# and floor's a >= b read nonzero.
SUITES = {"floor": checks.floor, "prop1": checks.prop1}

SUITE_GOLDEN = {
    ("floor", 100, 53): (
        "06c0761623a1f7edbeb91bf5bec362319861cf2f9c23afca2eb2a63dcb48980a",
        {"max_imag_residue": "0x1.262303aa52c2cp-52",
         "max_rounding_distance": "0x1.0000000000000p-44"},
    ),
    ("prop1", 200, 53): (
        "fc601b7797a55238eb3194537d020cc7ffa33fd74904b36673c46bc824837159",
        {"max_cot_cos_residue": "0x1.35b2000000000p-44",
         "max_frac_error": "0x1.8000000000000p-52"},
    ),
    ("floor", 40, 113): (
        "80fae81b21639c8a24ff4868c788ea776882f936b76781e24707596e3fa4f043",
        {"max_imag_residue": "0x1.c6db6db6db6dbp-113",
         "max_rounding_distance": "0x1.0000000000000p-104"},
    ),
    ("prop1", 40, 113): (
        "aa4e9d6fe605494b06e0e7a5e6c08de17c481b39a7e92ba05db4242abc517f62",
        {"max_cot_cos_residue": "0x1.4aa0000000000p-107",
         "max_frac_error": "0x1.0000000000000p-112"},
    ),
}


@pytest.mark.parametrize("suite, size, precision", sorted(SUITE_GOLDEN))
def test_suite_bits_are_unchanged(suite, size, precision):
    cfg = PrecisionConfig(working_precision=precision)
    result = SUITES[suite](size, checks.DEFAULT_SEED, cfg)
    digest = hashlib.sha256(repr(result).encode()).hexdigest()
    extra = {name: value.hex() for name, value in result[1].items()}
    assert (digest, extra) == SUITE_GOLDEN[suite, size, precision]


# The benchmark's constants command: its three r(b) sum 600,000 binary64
# terms, so every bit of r(b)'s term kernel at b*K up to 2*10^9 shows here.
CONSTANTS_ARGV = "constants --K 200000 --bs 100,1000,10000"
CONSTANTS_STDOUT = """\
{
  "command": "constants",
  "diagnostics": {
    "C0_tail_bound": 8.491629432949566e-10,
    "r_10000_tail_bound": 2.22177276576474e-11,
    "r_1000_tail_bound": 2.220790218387947e-11,
    "r_100_tail_bound": 2.220662542740115e-11
  },
  "parameters": {
    "K": 200000,
    "bs": [
      100,
      1000,
      10000
    ],
    "precision": 53
  },
  "values": {
    "C0_estimate": -0.630330700350115,
    "C0_gap": 4.0379133370294085e-10,
    "closed_form_C0": -0.6303307007539063,
    "euler_gamma": 0.5772156649015329,
    "log_two_pi": 1.8378770664093456,
    "r_100": 0.3597519493617844,
    "r_1000": 0.3686701221141299,
    "r_10000": 0.36956930747124006
  }
}
"""


def test_constants_stdout_is_unchanged(capsys):
    assert main(CONSTANTS_ARGV.split()) == 0
    assert capsys.readouterr().out == CONSTANTS_STDOUT
