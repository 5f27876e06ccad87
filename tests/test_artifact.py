import hashlib
import json
import math

import pytest

from scalelaw import (
    LawArtifact,
    LrLawFit,
    ParseError,
    ValidationError,
    reference_artifact,
)
from scalelaw.artifact import FORMAT_TAG
from scalelaw.laws import DEFAULT_PRESETS, FrontierPoint

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
    # the fit block is kept as written, with keys such as the
    # init_grid_winner that earlier versions wrote
    fit = {"r_squared": 0.99, "init_grid_winner": [0.78, 0.157, 47.3]}
    LawArtifact(loss_law=ref_law, loss_fit=fit).save(path)
    loaded = LawArtifact.load(path)
    assert loaded.loss_law == ref_law
    assert loaded.loss_fit == fit
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


_BOPT = {"k": 3240.0, "p": 0.264, "s_floor": 4000.0, "crossover_D": 4.6e9,
         "d_min": 1e9, "d_max": 1e12}
_FRONTIER = reference_artifact().frontier.to_dict()
_POINT = {"C": 1.2e20, "loss": 2.5, "N": 1e9, "D": 2e10, "S": 2e4, "B": 1e6, "edge_clipped": False}


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
        (
            {"frontier": dict(_FRONTIER, points=[dict(_POINT, edge_clipped="false")])},
            "frontier block is malformed: edge_clipped",
        ),
        (
            {"frontier": dict(_FRONTIER, points=[dict(_POINT, N=True)])},
            "frontier block is malformed: N",
        ),
        ({"frontier": dict(_FRONTIER, points=[{"C": 1.2e20}])}, "frontier block is missing field"),
        (
            {"frontier": dict(_FRONTIER, excluded_model_sizes=[True])},
            "frontier block is malformed: excluded_model_sizes",
        ),
        (
            {"frontier": dict(_FRONTIER, consistency_residuals={"B_opt": True})},
            "frontier block is malformed: B_opt",
        ),
        ({"comparisons": "ab"}, "comparisons block is malformed"),
        ({"comparisons": [1, 2]}, "comparisons block is malformed"),
        ({"comparisons": {"label": "x"}}, "comparisons block is malformed"),
    ],
)
def test_malformed_blocks_are_parse_errors(blocks, message):
    with pytest.raises(ParseError, match=message):
        LawArtifact.from_json_dict({"format": FORMAT_TAG, **blocks})


def test_out_of_range_block_values_stay_validation_errors():
    params = {"E": 1.5, "A": 400.0, "alpha": 0.3, "Bcoef": 400.0, "beta": 0.3}
    # NaN fails every comparison, so each check must reject it explicitly
    loss_laws = [dict(params, A=-1.0), dict(params, E=math.nan), dict(params, Bcoef=math.inf)]
    blocks = [{"loss_law": {"form": "chinchilla", "params": p}} for p in loss_laws]
    blocks += [
        {"bopt": dict(_BOPT, **{name: value})}
        for name in ("k", "p", "s_floor", "crossover_D", "d_min", "d_max")
        for value in (math.nan, -math.inf)
    ]
    blocks.append({"bopt": dict(_BOPT, d_max=math.inf)})
    for block in blocks:
        with pytest.raises(ValidationError):
            LawArtifact.from_json_dict({"format": FORMAT_TAG, **block})
    # each of these loaded and gave advice such as "peak LR: nan" (exit 0)
    for block, message in _NAMED_OUT_OF_RANGE:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            LawArtifact.from_json_dict({"format": FORMAT_TAG, **block})


_LR_LAW = {"gamma": 0.875, "lr_ceiling": 2.4e-3, "plateau_onset_B": 5.4e6, "n_fit": 6}


def _preset(**changes):
    return {"presets": {"rows": [dict(DEFAULT_PRESETS[3].to_dict(), **changes)]}}


def _frontier_point(**changes):
    return {"frontier": dict(_FRONTIER, points=[dict(_POINT, **changes)])}


_NAMED_OUT_OF_RANGE = [
    (_preset(max_lr=math.nan), "max_lr must be positive and finite, got nan"),
    (_preset(batch_size=math.inf), "batch_size must be positive and finite, got inf"),
    (_preset(n_params=math.nan), "n_params must be positive and finite, got nan"),
    (_preset(warmup_steps=-1), "warmup_steps must be non-negative and finite, got -1"),
    (_preset(decay_steps=-5), "decay_steps must be non-negative and finite, got -5"),
    (
        {"lr_law": dict(_LR_LAW, lr_ceiling=-1.0)},
        "lr_ceiling must be positive and finite, got -1.0",
    ),
    ({"lr_law": dict(_LR_LAW, gamma=math.nan)}, "gamma must be finite, got nan"),
    ({"lr_law": dict(_LR_LAW, gamma=-math.inf)}, "gamma must be finite, got -inf"),
    (
        {"lr_law": dict(_LR_LAW, plateau_onset_B=math.inf)},
        "plateau_onset_B must be positive and finite, got inf",
    ),
    ({"lr_law": dict(_LR_LAW, base_lr=0.0)}, "base_lr must be positive and finite, got 0.0"),
    ({"lr_law": dict(_LR_LAW, base_B=math.nan)}, "base_B must be positive and finite, got nan"),
    (
        {"lr_law": dict(_LR_LAW, d_checkpoint=-2e10)},
        "d_checkpoint must be positive and finite, got -20000000000.0",
    ),
    ({"lr_law": dict(_LR_LAW, n_fit=-1)}, "n_fit must be non-negative and finite, got -1"),
    (_frontier_point(C=math.nan), "C must be positive and finite, got nan"),
    (_frontier_point(loss=math.inf), "loss must be positive and finite, got inf"),
    (
        _frontier_point(C=math.inf, N=math.inf, D=math.inf, S=math.inf),
        "C must be positive and finite, got inf",
    ),
    ({"bopt": dict(_BOPT, k=math.nan)}, "k must be positive and finite, got nan"),
    ({"bopt": dict(_BOPT, s_floor=0.0)}, "s_floor must be positive and finite, got 0.0"),
    (
        {"bopt": dict(_BOPT, d_min=2e12)},
        r"need d_min <= d_max, got \(2000000000000.0, 1000000000000.0\)",
    ),
    ({"bopt": dict(_BOPT, p=math.inf)}, "p must be finite, got inf"),
    ({"bopt": dict(_BOPT, crossover_D=-1.0)}, "crossover_D must be non-negative, got -1.0"),
    (
        {"frontier": dict(_FRONTIER, N_opt=dict(_FRONTIER["N_opt"], k=0.0))},
        "k must be positive and finite, got 0.0",
    ),
    (
        {"loss_law": {"form": "chinchilla", "params": {
            "E": 1.5, "A": math.nan, "alpha": 0.3, "Bcoef": 400.0, "beta": 0.3,
        }}},
        "A must be positive and finite, got nan",
    ),
]


def test_absent_fields_take_the_record_defaults():
    point = {k: v for k, v in _POINT.items() if k != "edge_clipped"}
    artifact = LawArtifact.from_json_dict({
        "format": FORMAT_TAG,
        "bopt": _BOPT,
        "frontier": dict(_FRONTIER, points=[point]),
        "lr_law": {"gamma": 0.5, "lr_ceiling": None, "plateau_onset_B": None},
    })
    assert artifact.bopt.power_fitted is True
    assert artifact.frontier.points[0].edge_clipped is False
    # n_fit 0 and no anchors
    assert artifact.lr_law == LrLawFit(0.5, None, None, 0, None, None, None)


def test_null_fields_need_a_none_annotation():
    # lr_ceiling and an anchor may be null; gamma, and a bopt field, may not
    assert LrLawFit.from_dict(dict(_LR_LAW, lr_ceiling=None, base_lr=None)) == LrLawFit(
        0.875, None, 5.4e6, 6
    )
    with pytest.raises(ParseError, match="lr_law block is malformed: gamma must be a number"):
        LawArtifact.from_json_dict({"format": FORMAT_TAG, "lr_law": dict(_LR_LAW, gamma=None)})
    with pytest.raises(ParseError, match="bopt block is malformed: power_fitted"):
        LawArtifact.from_json_dict({"format": FORMAT_TAG, "bopt": dict(_BOPT, power_fitted=None)})


def test_flat_records_read_back_what_they_write(reference):
    for record in (
        reference.loss_law, reference.bopt, reference.lr_law, reference.frontier.B_opt,
        *reference.presets.rows, FrontierPoint.from_dict(_POINT),
        LrLawFit(0.5, None, None, 3, base_lr=1e-3, base_B=5e5, d_checkpoint=1e10),
    ):
        assert type(record).from_dict(record.to_dict()) == record


_CHINCHILLA = {"E": 1.5, "A": 400.0, "alpha": 0.3, "Bcoef": 400.0, "beta": 0.3}


@pytest.mark.parametrize(
    "blocks, message",
    [
        (
            {"loss_law": {"form": "chinchilla", "params": dict(_CHINCHILLA, Bcoeff=400.0)}},
            "loss_law block is malformed: unknown field 'Bcoeff'",
        ),
        ({"bopt": dict(_BOPT, power_fited=False)}, "bopt block is malformed: unknown field 'power_fited'"),
        (
            {"lr_law": dict(_LR_LAW, lr_cieling=1e-3)},
            "lr_law block is malformed: unknown field 'lr_cieling'",
        ),
        (_preset(max_Lr=1e-3), "presets block is malformed: unknown field 'max_Lr'"),
        (
            _frontier_point(edge_cliped=True),
            "frontier block is malformed: unknown field 'edge_cliped'",
        ),
        (
            {"frontier": dict(_FRONTIER, B_opt=dict(_FRONTIER["B_opt"], x_mx=1e22))},
            "frontier block is malformed: unknown field 'x_mx'",
        ),
        # the first undeclared key is the one named
        (
            {"bopt": dict(_BOPT, power_fited=False, kk=1.0)},
            "bopt block is malformed: unknown field 'power_fited'",
        ),
    ],
    ids=["ChinchillaLaw", "BoptLaw", "LrLawFit", "PresetRow", "FrontierPoint", "PowerLaw", "first"],
)
def test_undeclared_keys_of_a_flat_record_are_parse_errors(blocks, message):
    """A misspelt optional field used to take its default silently."""
    with pytest.raises(ParseError, match=f"^{message}$"):
        LawArtifact.from_json_dict({"format": FORMAT_TAG, **blocks})


def test_undeclared_top_level_keys_stay_ignored(reference):
    doc = dict(reference.to_json_dict(), notes="written by hand")
    assert LawArtifact.from_json_dict(doc).to_json_dict() == reference.to_json_dict()
