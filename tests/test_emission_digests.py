"""Golden sha256 digests of the LP and MPS text both builders emit.

Refactors of the builders must leave every emitted byte unchanged, so these
digests are fixed, not regenerated.  Files that ``write_model`` streams must
hold the same bytes as the text.  The default path6 perm0 models are
checked against the benchmark's own expected digests in
``perfbench/expected.json``, which this test reads and never writes.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from nfvlight import build_milp, build_miqcp, emit_lp, emit_model, emit_mps, write_model

VARIANTS = {
    "default": {},
    "fixed": {"fixed_topology": True},
    "prune": {"prune_pinned_tuples": True},
}

# staged variants: a default model re-targeted to one objective part, with
# earlier parts pinned at the given values, as ``solve --staged`` does
STAGES = {
    "part1": (1, ()),
    "part4": (4, ((1, 1.0), (2, 1.0))),
}

DIGESTS = {
    "tiny-default-miqcp-lp": "ee9260994a4dba3607e25372803a78defb2bf9247e0accf416b940fa5c104996",
    "tiny-default-milp-lp": "cddaf1f389c47acf466a6b0b26e891878d8cd608a69875ec0f26701d644657a0",
    "tiny-default-milp-mps": "6ab751d373268ed0704c597e163b07e839d0680dc426b847d77922f060e9afea",
    "tiny-fixed-miqcp-lp": "b19e2f04ba5108e778292ab93ba150458dd24287bf50086edd432a1cb21d132e",
    "tiny-fixed-milp-lp": "e26a0486bca6e518b381ecaa0ef8439a1cffb0e12393ece131e65d0d75433355",
    "tiny-fixed-milp-mps": "f08e474beeeefcca10be866dd2f4a9a6b777d2660d3b7857b785d5b191faa66e",
    "tiny-prune-miqcp-lp": "287109ee96e0ef91718c23979c01a9af1774fbd90aef64b6f5579bccda0f2cdb",
    "tiny-prune-milp-lp": "94e90f3c6a99a46ce2a4275e79ab3490d62b14d0b6598885066e74d3b6877a10",
    "tiny-prune-milp-mps": "8b0dc036dade9d4016c86e5b131f654c97d8f1984234c9698bb25a15a39d4ae7",
    "tiny-part1-miqcp-lp": "3574d3e492e99367a9ab60640148e274a4386ea16528a5839a009d91e8e9f454",
    "tiny-part1-milp-lp": "7f51b4c6f23db1394d9d0811721a69f27b5eef197c2e8f17923717e9a568be2e",
    "tiny-part1-milp-mps": "a3de5970fc298e53f527adabac0221266a70eaaf1863cfa673054f3c3486f2ca",
    "tiny-part4-miqcp-lp": "91f417d0a73ca906123fec9bece05c555867497c1cc8bc3fe185b1ad1d51a3a3",
    "tiny-part4-milp-lp": "3bf54530b7a0296ebd458739e57983ddd87fe39afe2064fdb79ccfd7b852ee5a",
    "tiny-part4-milp-mps": "2fe4af0e3f694193a4e02585ff68f78857326fdf6173a85c35bd02a5afadabac",
    "motivation-default-miqcp-lp": "196c75cd1c15a3c9dc0a8d51f58f6940e3cc2fff69c3292fcb00bb2cb552754e",
    "motivation-default-milp-lp": "f3eddda1e57d7ce7cef0787552a72462ee8f29fbe1263298f2c6ad57b8d973b5",
    "motivation-default-milp-mps": "43adf95f4975395e34c2a618fa124a997bda072d9098bfa8e7db5c8e732f34e3",
    "motivation-fixed-miqcp-lp": "a487d7d407617d6aadafc1e7de30b2bf0dc5b4547bac3d642ad88223d8105f70",
    "motivation-fixed-milp-lp": "b3cc5a5b577d3ecbd8e4824fa0ea891f2ee331f5eb9675134d3362cdb593d667",
    "motivation-fixed-milp-mps": "e27d17f264013b9c363fbe335d9c7971a698e226c3eb325bd360b813cd6e5729",
    "perm0-fixed-miqcp-lp": "c00e46060a6dca8314369517ce409377e3f8b8fa3c332e230c885a98da1e7a52",
    "perm0-fixed-milp-lp": "95dc6f08ff2982b05910e8802617ac5b2110b361106c547584218b4b1f06f4f1",
    "perm0-fixed-milp-mps": "49d50e53ba6385405d722f199d74ceb2861e5830e6e78125dec8d534c9661fd0",
}

CASES = list(dict.fromkeys(key.rsplit("-", 1)[0] for key in DIGESTS))


@pytest.mark.parametrize("case", CASES)
def test_emitted_text_matches_golden_digest(case, request):
    instance, variant, kind = case.split("-")
    scn = request.getfixturevalue(instance)
    build = build_miqcp if kind == "miqcp" else build_milp
    model = build(scn, **VARIANTS.get(variant, {}))
    if variant in STAGES:
        part, pins = STAGES[variant]
        model.set_objective(*model.objective_parts[part])
        for k, value in pins:
            terms = model.objective_parts[k][0]
            model.add_con(f"objective_pin_o{k}", "objective_pin", terms, "=", value)
    emitters = {"lp": emit_lp, "mps": emit_mps} if kind == "milp" else {"lp": emit_lp}
    for fmt, emit in emitters.items():
        digest = hashlib.sha256(emit(model).encode()).hexdigest()
        assert digest == DIGESTS[f"{case}-{fmt}"], f"{case}-{fmt}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_perm0_files_match_the_benchmark_digests(perm0):
    expected = Path(__file__).parent.parent / "perfbench" / "expected.json"
    milp = build_milp(perm0)
    assert {
        "perm0-milp-lp": _sha256(emit_lp(milp)),
        "perm0-milp-mps": _sha256(emit_mps(milp)),
        "perm0-miqcp-lp": _sha256(emit_lp(build_miqcp(perm0))),
    } == json.loads(expected.read_text())["model_sha256"]


def golden_model(case: str, request):
    """The model of a golden ``case``, built as the digest test above builds it."""
    instance, variant, kind = case.split("-")
    scn = request.getfixturevalue(instance)
    build = build_miqcp if kind == "miqcp" else build_milp
    model = build(scn, **VARIANTS.get(variant, {}))
    if variant in STAGES:
        part, pins = STAGES[variant]
        model.set_objective(*model.objective_parts[part])
        for k, value in pins:
            terms = model.objective_parts[k][0]
            model.add_con(f"objective_pin_o{k}", "objective_pin", terms, "=", value)
    return model


@pytest.mark.parametrize("case", CASES)
def test_written_files_hold_the_emitted_text(case, request, tmp_path):
    model = golden_model(case, request)
    for fmt in ("lp", "mps") if model.kind == "milp" else ("lp",):
        path = tmp_path / f"{case}.{fmt}"
        write_model(model, path, fmt)
        data = path.read_bytes()
        assert data == emit_model(model, fmt).encode(), f"{case}-{fmt}"
        assert hashlib.sha256(data).hexdigest() == DIGESTS[f"{case}-{fmt}"], f"{case}-{fmt}"


def test_default_perm0_written_files_match_the_benchmark_digests(perm0, tmp_path):
    expected = Path(__file__).parent.parent / "perfbench" / "expected.json"
    digests = {}
    for case, build, fmt in (
        ("perm0-milp-lp", build_milp, "lp"),
        ("perm0-milp-mps", build_milp, "mps"),
        ("perm0-miqcp-lp", build_miqcp, "lp"),
    ):
        path = tmp_path / f"{case}.{fmt}"
        write_model(build(perm0), path, fmt)
        digests[case] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == json.loads(expected.read_text())["model_sha256"]
