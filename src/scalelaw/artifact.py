"""Law-artifact files: the JSON interchange unit between fitting and advising.

One document can bundle a parametric loss law with its fit diagnostics, the
frontier power laws, the batch-size law, an LR law block, presets, and
published comparison laws, carried as data that nothing evaluates.
reference_artifact() builds an artifact of well-known published constants,
so advice queries work without any fitting step.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._atomic import write_atomic
from ._record import Record
from .errors import ParseError
from .laws import (
    REFERENCE_LOSS_LAW,
    BoptLaw,
    ChinchillaLaw,
    FrontierReport,
    LrLawFit,
    PowerLaw,
    Presets,
    decode_json,
    reading,
)

FORMAT_TAG = "scalelaw-laws/1"
# blocks that each hold one record, keyed by their LawArtifact field
_RECORD_BLOCKS = dict(frontier=FrontierReport, bopt=BoptLaw, lr_law=LrLawFit, presets=Presets)


class LawArtifact(Record, frozen=True):
    """Deserialized law-artifact document; every block is optional."""

    loss_law: ChinchillaLaw | None = None
    loss_fit: dict | None = None
    frontier: FrontierReport | None = None
    bopt: BoptLaw | None = None
    lr_law: LrLawFit | None = None
    presets: Presets | None = None
    comparisons: tuple[dict, ...] = ()
    provenance: str | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"format": FORMAT_TAG}
        if self.loss_law is not None:
            doc["loss_law"] = {
                "form": "chinchilla",
                "params": self.loss_law.to_dict(),
                "fit": self.loss_fit or {},
            }
        for name in _RECORD_BLOCKS:
            if getattr(self, name) is not None:
                doc[name] = getattr(self, name).to_dict()
        if self.comparisons:
            doc["comparisons"] = [dict(c) for c in self.comparisons]
        if self.provenance:
            doc["provenance"] = self.provenance
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LawArtifact":
        if not isinstance(doc, dict):
            raise ParseError("law artifact must be a JSON object")
        if doc.get("format") != FORMAT_TAG:
            raise ParseError(
                f"unsupported law artifact format {doc.get('format')!r}; "
                f"expected {FORMAT_TAG!r}"
            )
        loss_law, loss_fit = _parse_block(doc, "loss_law", _loss_law_block) or (None, None)
        return cls(
            loss_law=loss_law,
            loss_fit=loss_fit,
            **{
                name: _parse_block(doc, name, record.from_dict)
                for name, record in _RECORD_BLOCKS.items()
            },
            comparisons=_parse_block(doc, "comparisons", _comparisons_block) or (),
            provenance=doc.get("provenance"),
        )

    def save(self, path: str | Path) -> None:
        """Write the document atomically (temp file, then rename)."""
        write_atomic(path, [json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"])

    @classmethod
    def load(cls, path: str | Path) -> "LawArtifact":
        return cls.from_json_dict(decode_json(Path(path).read_text(), f"{path}: "))


def _parse_block(doc: dict, name: str, parse):
    """parse(doc[name]), or None without the block; a missing key or
    wrong-typed value is a ParseError naming the block."""
    if name not in doc:
        return None
    with reading(f"{name} block"):
        return parse(doc[name])


def _loss_law_block(block: dict) -> tuple[ChinchillaLaw, dict | None]:
    if block.get("form") != "chinchilla":
        raise ParseError(f"unsupported loss law form {block.get('form')!r}")
    return ChinchillaLaw.from_dict(block["params"]), block.get("fit") or None


def _comparisons_block(block: list) -> tuple[dict, ...]:
    if not isinstance(block, list) or not all(isinstance(c, dict) for c in block):
        raise TypeError("expected a list of objects")
    return tuple(block)


def reference_artifact() -> LawArtifact:
    """The artifact of published reference constants.

    Source: a published batch-size scaling study of LLM training (models
    125M to 2.6B parameters, up to 300B tokens), plus two widely cited
    earlier law fits for comparison.  Power-law validity ranges reflect
    that study's data coverage; queries beyond them are flagged, not
    refused.
    """
    c_lo, c_hi = 1e18, 5e21
    b_opt_k, b_opt_p = 6.42e3, 0.102
    # the batch law is only supported above the smallest swept batch (0.5M)
    b_floor_c = (5e5 / b_opt_k) ** (1.0 / b_opt_p)
    frontier = FrontierReport(
        points=(),
        L_opt=PowerLaw(k=23.00, p=-0.050, x_min=c_lo, x_max=c_hi),
        N_opt=PowerLaw(k=0.297, p=0.464, x_min=c_lo, x_max=c_hi),
        D_opt=PowerLaw(k=0.561, p=0.536, x_min=c_lo, x_max=c_hi),
        S_opt=PowerLaw(k=8.74e-5, p=0.434, x_min=c_lo, x_max=c_hi),
        B_opt=PowerLaw(k=b_opt_k, p=b_opt_p, x_min=b_floor_c, x_max=c_hi),
        consistency_residuals={},
    )
    bopt_k, bopt_p, s_floor = 3.24e3, 0.264, 4000.0
    bopt = BoptLaw(
        k=bopt_k,
        p=bopt_p,
        s_floor=s_floor,
        crossover_D=(bopt_k * s_floor) ** (1.0 / (1.0 - bopt_p)),
        d_min=1e9,
        d_max=1e12,
        power_fitted=True,
    )
    presets = Presets()
    # LR exponent band midpoint, anchored at the 350M preset; ceiling and
    # its onset from the 350M sweep
    gamma = 0.875
    anchor = presets.lookup(3.5e8)
    base_lr, base_b = anchor.max_lr, anchor.batch_size
    lr_ceiling = 2.4e-3
    lr_law = LrLawFit(
        gamma=gamma,
        lr_ceiling=lr_ceiling,
        plateau_onset_B=base_b * (lr_ceiling / base_lr) ** (1.0 / gamma),
        n_fit=0,
        base_lr=base_lr,
        base_B=base_b,
    )
    return LawArtifact(
        loss_law=REFERENCE_LOSS_LAW,
        loss_fit={
            "r_squared": 0.962,
            "delta": 1e-3,
            "constraint": {
                "a": frontier.N_opt.p, "b": frontier.D_opt.p,
                "p": frontier.N_opt.k, "q": frontier.D_opt.k,
            },
        },
        frontier=frontier,
        bopt=bopt,
        lr_law=lr_law,
        presets=presets,
        comparisons=(
            {
                "label": "chinchilla-published",
                "form": "chinchilla",
                "params": {"E": 1.69, "A": 406.4, "alpha": 0.34, "Bcoef": 410.7, "beta": 0.28},
            },
            {
                "label": "kaplan-gpt3",
                "form": "kaplan",
                "params": {"Nc": 8.8e13, "Dc": 5.4e13, "alpha_N": 0.076, "alpha_D": 0.095},
            },
        ),
        provenance=(
            "Published reference constants for LLM loss scaling and batch-size "
            "laws (125M-2.6B models, up to 300B tokens), with two earlier "
            "published law fits for comparison."
        ),
    )
