import hashlib
import json

import pytest

from scalelaw import (
    ChinchillaLaw,
    KaplanLaw,
    LawArtifact,
    LrLawFit,
    ParseError,
    ValidationError,
    reference_artifact,
)
from scalelaw.advisor import DEFAULT_PRESETS
from scalelaw.artifact import FORMAT_TAG

# sha256 of the saved reference artifact: every published constant, the
# presets and the JSON layout feed these bytes
REFERENCE_SHA256 = "3e62554e63903ea6e5493a84e401dadf87718bd0650aa7038aa8d2b040e09cd7"


def test_save_load_round_trip(tmp_path, reference):
    path = tmp_path / "laws.json"
    reference.save(path)
    loaded = LawArtifact.load(path)
    assert loaded.to_json_dict() == reference.to_json_dict()
    assert loaded.loss_law == reference.loss_law
    assert loaded.bopt == reference.bopt
    assert loaded.presets == reference.presets


def test_save_is_deterministic_and_atomic(tmp_path, reference):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    reference.save(a)
    reference.save(b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")
    reference.save(a)  # overwrite in place
    assert a.read_bytes() == b.read_bytes()
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_reference_artifact_bytes_are_pinned(tmp_path):
    path = tmp_path / "reference.json"
    reference_artifact().save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_SHA256


def test_reference_constants_are_self_consistent(reference):
    # the batch law's validity floor is where B_opt crosses the smallest
    # swept batch, and the two-regime batch law crosses at its own knee
    b_opt = reference.frontier.B_opt
    assert b_opt.x_min == pytest.approx(3.4953e18, rel=1e-3)
    assert b_opt(b_opt.x_min) == pytest.approx(5e5, rel=1e-9)
    assert reference.bopt.crossover_D == pytest.approx(4.6117e9, rel=1e-3)
    assert reference.loss_fit["r_squared"] == 0.962


def test_lr_fit_extraction(reference):
    fit = reference.lr_law
    assert isinstance(fit, LrLawFit)
    assert fit.gamma == 0.875
    assert fit.lr_ceiling == 2.4e-3
    assert fit.plateau_onset_B == pytest.approx(5e5 * 8.0 ** (1 / 0.875), rel=1e-12)
    assert (fit.base_lr, fit.base_B, fit.d_checkpoint) == (3e-4, 5e5, None)
    assert LawArtifact().lr_law is None
    uncapped = LawArtifact.from_json_dict({
        "format": FORMAT_TAG,
        "lr_law": {"gamma": 0.5, "lr_ceiling": None, "plateau_onset_B": None},
    }).lr_law
    assert uncapped.lr_ceiling is None
    assert uncapped.n_fit == 0
    # unset anchor fields stay out of the written block
    assert uncapped.to_dict() == {
        "gamma": 0.5, "lr_ceiling": None, "plateau_onset_B": None, "n_fit": 0
    }


def test_partial_artifact_round_trip(tmp_path, ref_law):
    path = tmp_path / "partial.json"
    LawArtifact(loss_law=ref_law, loss_fit={"r_squared": 0.99}).save(path)
    loaded = LawArtifact.load(path)
    assert loaded.loss_law == ref_law
    assert loaded.loss_fit == {"r_squared": 0.99}
    assert loaded.frontier is None
    assert loaded.bopt is None
    assert loaded.presets is None
    assert loaded.comparisons == ()

    empty = tmp_path / "empty.json"
    LawArtifact().save(empty)
    assert json.loads(empty.read_text()) == {"format": FORMAT_TAG}
    assert LawArtifact.load(empty) == LawArtifact()


def test_format_tag_is_checked(tmp_path, write_json):
    with pytest.raises(ParseError, match="unsupported law artifact format"):
        LawArtifact.from_json_dict({"format": "scalelaw-laws/999"})
    with pytest.raises(ParseError, match="JSON object"):
        LawArtifact.from_json_dict([1, 2])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        LawArtifact.load(bad)
    with pytest.raises(FileNotFoundError):
        LawArtifact.load(tmp_path / "absent.json")
    with pytest.raises(ParseError, match="unsupported loss law form"):
        LawArtifact.from_json_dict(
            {"format": FORMAT_TAG, "loss_law": {"form": "quadratic", "params": {}}}
        )


def test_comparison_law_lookup(reference):
    chinchilla = reference.comparison_law("chinchilla-published")
    assert isinstance(chinchilla, ChinchillaLaw)
    assert chinchilla.E == 1.69
    kaplan = reference.comparison_law("kaplan-gpt3")
    assert isinstance(kaplan, KaplanLaw)
    with pytest.raises(KeyError, match="no comparison law"):
        reference.comparison_law("nonexistent")
    mystery = LawArtifact(
        comparisons=({"label": "x", "form": "mystery", "params": {}},)
    )
    with pytest.raises(ParseError, match="unknown law form"):
        mystery.comparison_law("x")


_BOPT = {"k": 3240.0, "p": 0.264, "s_floor": 4000.0, "crossover_D": 4.6e9,
         "d_min": 1e9, "d_max": 1e12}


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({"bopt": {"k": 1}}, "bopt block is missing field 'p'"),
        ({"bopt": dict(_BOPT, k="abc")}, "bopt block is malformed"),
        ({"bopt": None}, "bopt block is malformed"),
        ({"frontier": {"N_opt": "x"}}, "frontier block is missing field 'L_opt'"),
        (
            {"frontier": dict.fromkeys(("L_opt", "N_opt", "D_opt", "S_opt", "B_opt"), "x")},
            "frontier block is malformed",
        ),
        ({"bopt": _BOPT, "lr_law": {"gamma": 0.5}}, "lr_law block is missing field 'lr_ceiling'"),
        ({"loss_law": []}, "loss_law block is malformed"),
        ({"loss_law": {"form": "chinchilla"}}, "loss_law block is missing field 'params'"),
        ({"presets": {"rows": [{"n_params": 1e8}]}}, "presets block is missing field 'label'"),
        ({"comparisons": 5}, "comparisons block is malformed"),
        ({"bopt": dict(_BOPT, power_fitted="false")}, "bopt block is malformed: power_fitted"),
        ({"bopt": dict(_BOPT, k=True)}, "bopt block is malformed: k"),
        (
            {"lr_law": {"gamma": 0.5, "lr_ceiling": None, "plateau_onset_B": None, "n_fit": 2.5}},
            "lr_law block is malformed: n_fit",
        ),
        (
            {"presets": {"rows": [dict(DEFAULT_PRESETS[0].to_dict(), warmup_steps=715.9)]}},
            "presets block is malformed: warmup_steps",
        ),
        (
            {"presets": {"rows": [dict(DEFAULT_PRESETS[0].to_dict(), label=None)]}},
            "presets block is malformed: label",
        ),
    ],
)
def test_malformed_blocks_are_parse_errors(blocks, message):
    with pytest.raises(ParseError, match=message):
        LawArtifact.from_json_dict({"format": FORMAT_TAG, **blocks})


def test_out_of_range_block_values_stay_validation_errors():
    params = {"E": 1.5, "A": -1.0, "alpha": 0.3, "Bcoef": 400.0, "beta": 0.3}
    with pytest.raises(ValidationError):
        LawArtifact.from_json_dict(
            {"format": FORMAT_TAG, "loss_law": {"form": "chinchilla", "params": params}}
        )
