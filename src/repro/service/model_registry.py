"""Registry of trained / reduced models held by the Eugene back-end."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..nn.data import Dataset
from ..nn.resnet import StagedResNet
from ..scheduler.confidence import GPConfidencePredictor


@dataclass
class ModelEntry:
    """A registered model plus the artifacts the service keeps beside it."""

    model_id: str
    name: str
    model: StagedResNet
    kind: str = "full"  # "full" or "reduced"
    #: the training set, retained for reduction/calibration requests.
    train_set: Optional[Dataset] = None
    #: confidence-curve predictor fitted on training confidences (Sec. III-B).
    predictor: Optional[GPConfidencePredictor] = None
    #: class map of reduced models (original class -> reduced output index).
    class_map: Optional[Dict[int, int]] = None
    parent_id: Optional[str] = None


class ModelRegistry:
    """In-memory model store with sequential ids."""

    def __init__(self) -> None:
        self._entries: Dict[str, ModelEntry] = {}
        self._counter = itertools.count(1)

    def register(
        self,
        name: str,
        model: StagedResNet,
        kind: str = "full",
        train_set: Optional[Dataset] = None,
        predictor: Optional[GPConfidencePredictor] = None,
        class_map: Optional[Dict[int, int]] = None,
        parent_id: Optional[str] = None,
    ) -> ModelEntry:
        model_id = f"m{next(self._counter)}"
        entry = ModelEntry(
            model_id=model_id,
            name=name,
            model=model,
            kind=kind,
            train_set=train_set,
            predictor=predictor,
            class_map=class_map,
            parent_id=parent_id,
        )
        self._entries[model_id] = entry
        return entry

    def install(self, entry: ModelEntry) -> ModelEntry:
        """Place an entry under its *own* ``model_id`` (the replication path).

        ``register`` mints sequential local ids; a cluster router instead
        assigns one authoritative id per model and installs copies of the
        entry on every replica holding it, so the same id resolves on each.
        Installing over an existing id is refused — replication must never
        silently shadow a model.
        """
        if not entry.model_id:
            raise ValueError("entry needs a model_id to be installed")
        if entry.model_id in self._entries:
            raise ValueError(f"model id {entry.model_id!r} already registered")
        self._entries[entry.model_id] = entry
        return entry

    def pop(self, model_id: str) -> ModelEntry:
        """Remove and return one entry, ignoring parent/child protection.

        Used by the replication path to re-key a freshly trained model to
        its cluster-wide id; for client-facing deletion semantics use
        :meth:`delete`.
        """
        if model_id not in self._entries:
            raise KeyError(f"unknown model id {model_id!r}")
        return self._entries.pop(model_id)

    def get(self, model_id: str) -> ModelEntry:
        if model_id not in self._entries:
            raise KeyError(f"unknown model id {model_id!r}")
        return self._entries[model_id]

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def list_models(self) -> List[ModelEntry]:
        return list(self._entries.values())

    def children(self, model_id: str) -> List[ModelEntry]:
        """Reduced models registered with ``model_id`` as their parent."""
        return [e for e in self._entries.values() if e.parent_id == model_id]

    def delete(self, model_id: str, cascade: bool = False) -> List[str]:
        """Remove a model; returns every id removed (requested one first).

        A parent whose reduced children are still registered is protected:
        deleting it would leave the children's ``parent_id`` dangling, so
        the call is refused unless ``cascade=True``, which removes the
        whole subtree (children before grandchildren never happens — the
        reduce endpoint only derives from full models — but the walk is
        recursive anyway so deeper derivation chains stay safe).
        """
        if model_id not in self._entries:
            raise KeyError(f"unknown model id {model_id!r}")
        children = self.children(model_id)
        if children and not cascade:
            ids = ", ".join(sorted(c.model_id for c in children))
            raise ValueError(
                f"model {model_id!r} still has reduced children ({ids}); "
                "delete them first or pass cascade=True"
            )
        deleted = [model_id]
        for child in children:
            deleted.extend(self.delete(child.model_id, cascade=True))
        del self._entries[model_id]
        return deleted
