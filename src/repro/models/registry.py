"""Model registry: one table row per profiled DGNN, and what is read from it."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Type

from ..datasets import load as load_dataset
from ..domain import FINITE
from ..hw.machine import Machine
from .astgnn import ASTGNN, ASTGNNConfig
from .base import DGNNModel
from .dyrep import DyRep, DyRepConfig
from .evolvegcn import EvolveGCN, EvolveGCNConfig
from .jodie import JODIE, JODIEConfig
from .ldg import LDG, LDGConfig
from .moldgnn import MolDGNN, MolDGNNConfig
from .tgat import TGAT, TGATConfig
from .tgn import TGN, TGNConfig


class ModelSpec(NamedTuple):
    """One row of the model table."""

    name: str
    model_class: Type[DGNNModel]
    config_class: type
    #: Config fields the name itself fixes (a caller overriding one is an error).
    variant: Mapping[str, Any]
    #: Default dataset, matching what the paper profiles the model on.
    dataset: str


#: The model table, in the paper's Table 1 order.
MODELS: Tuple[ModelSpec, ...] = (
    ModelSpec("jodie", JODIE, JODIEConfig, {}, "wikipedia"),
    ModelSpec("tgn", TGN, TGNConfig, {}, "wikipedia"),
    ModelSpec("evolvegcn-o", EvolveGCN, EvolveGCNConfig, {"variant": "O"}, "bitcoin-alpha"),
    ModelSpec("evolvegcn-h", EvolveGCN, EvolveGCNConfig, {"variant": "H"}, "bitcoin-alpha"),
    ModelSpec("tgat", TGAT, TGATConfig, {}, "wikipedia"),
    ModelSpec("astgnn", ASTGNN, ASTGNNConfig, {}, "pems"),
    ModelSpec("dyrep", DyRep, DyRepConfig, {}, "social-evolution"),
    ModelSpec("ldg", LDG, LDGConfig, {}, "social-evolution"),
    ModelSpec("moldgnn", MolDGNN, MolDGNNConfig, {}, "iso17"),
)

_BY_NAME: Dict[str, ModelSpec] = {spec.name: spec for spec in MODELS}
_BY_NAME["evolvegcn"] = _BY_NAME["evolvegcn-o"]

MODEL_NAMES: Tuple[str, ...] = tuple(spec.name for spec in MODELS)

#: Default dataset for each model name (the alias ``"evolvegcn"`` included).
DEFAULT_DATASETS: Dict[str, str] = {name: spec.dataset for name, spec in _BY_NAME.items()}


def available_models() -> List[str]:
    return list(MODEL_NAMES)


def build_model(
    name: str,
    machine: Machine,
    dataset=None,
    dataset_name: Optional[str] = None,
    scale: str = "small",
    **config_overrides,
) -> DGNNModel:
    """Construct a model by name.

    Args:
        name: One of :func:`available_models` (plus the alias ``"evolvegcn"``
            for the -O variant).
        machine: Simulated machine the model will run on.
        dataset: Pre-loaded dataset; when omitted, the paper's default dataset
            for the model is loaded at ``scale``.
        dataset_name: Dataset to load when ``dataset`` is omitted.
        scale: Dataset scale when loading by name.
        **config_overrides: Forwarded to the model's config dataclass.
    """
    spec = _BY_NAME.get(name.lower())
    if spec is None:
        raise KeyError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    for key, value in config_overrides.items():
        if isinstance(value, float):
            FINITE.check(f"{spec.config_class.__name__}.{key}", value)
    if dataset is None:
        dataset = load_dataset(dataset_name or spec.dataset, scale=scale)
    return spec.model_class(machine, dataset, spec.config_class(**spec.variant, **config_overrides))


def build_on_fresh_machine(
    name: str, dataset=None, *, use_gpu: bool, backend: str = "numeric", **build_kwargs
) -> Tuple[Machine, DGNNModel]:
    """:func:`build_model` on a machine of its own (runs must not share timelines)."""
    machine = (Machine.cpu_gpu if use_gpu else Machine.cpu_only)(backend=backend)
    with machine.activate():
        return (machine, build_model(name, machine, dataset=dataset, **build_kwargs))


def capability_table() -> str:
    """The zoo's serving capabilities as a markdown table, one row per model.

    Read off the model table and what each class declares, so the table
    cannot drift from the code: ``repro-dgnn list-models`` prints it and
    ``docs/ARCHITECTURE.md`` embeds it (a test regenerates it byte for byte).
    """

    def mark(flag: bool) -> str:
        return "yes" if flag else "-"

    rows = [("model", "default dataset", "serves event streams", "cache kinds", "overlap",
             "async dispatch")]
    for spec in MODELS:
        cls = spec.model_class
        rows.append((
            f"`{spec.name}`",
            f"`{spec.dataset}`",
            mark(cls.serves_event_streams),
            ", ".join(cls.cache_kinds) if cls.supports_caching else "-",
            mark(cls.supports_overlap),
            mark(cls.supports_async_dispatch),
        ))
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    rows.insert(1, tuple("-" * width for width in widths))
    return "".join(
        "| " + " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) + " |\n"
        for row in rows
    )
