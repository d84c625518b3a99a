"""Per-copy protocol state: operation number, version number, partition set."""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

from repro.errors import ConfigurationError, ProtocolError

__all__ = ["ReplicaState", "ReplicaSet"]


class ReplicaState:
    """The consistency-control state of one physical copy.

    Invariants (enforced on every :meth:`commit`):

    * ``operation`` and ``version`` are positive and never decrease;
    * ``version <= operation`` — a write is also an operation;
    * the partition set is never empty and always contains at least the
      sites that committed (the caller supplies it; emptiness is rejected
      here, membership soundness is checked by the engine tests).
    """

    __slots__ = ("site_id", "_operation", "_version", "_partition_set")

    def __init__(
        self,
        site_id: int,
        operation: int = 1,
        version: int = 1,
        partition_set: AbstractSet[int] = frozenset(),
    ):
        if operation < 1 or version < 1:
            raise ConfigurationError(
                f"operation and version numbers start at 1, got o={operation} v={version}"
            )
        if version > operation:
            raise ConfigurationError(
                f"version ({version}) cannot exceed operation number ({operation})"
            )
        if not partition_set:
            raise ConfigurationError("initial partition set must be non-empty")
        self.site_id = site_id
        self._operation = operation
        self._version = version
        self._partition_set = frozenset(partition_set)

    # ------------------------------------------------------------------
    @property
    def operation(self) -> int:
        """Operation number ``o_i`` — counts all successful operations."""
        return self._operation

    @property
    def version(self) -> int:
        """Version number ``v_i`` — identifies the last successful write."""
        return self._version

    @property
    def partition_set(self) -> frozenset[int]:
        """``P_i`` — copies that took part in the last successful operation."""
        return self._partition_set

    # ------------------------------------------------------------------
    def commit(
        self,
        operation: int,
        version: int,
        partition_set: AbstractSet[int],
    ) -> None:
        """Apply a COMMIT: install the new ``(o, v, P)`` triple.

        Raises:
            ProtocolError: if the new numbers would violate monotonicity.
        """
        if operation < self._operation:
            raise ProtocolError(
                f"operation number would go backwards at site {self.site_id}: "
                f"{self._operation} -> {operation}"
            )
        if version < self._version:
            raise ProtocolError(
                f"version number would go backwards at site {self.site_id}: "
                f"{self._version} -> {version}"
            )
        if version > operation:
            raise ProtocolError(
                f"version ({version}) cannot exceed operation number ({operation})"
            )
        if not partition_set:
            raise ProtocolError("committed partition set must be non-empty")
        self._operation = operation
        self._version = version
        self._partition_set = frozenset(partition_set)

    def adopt(self, other: "ReplicaState") -> None:
        """Copy another replica's state triple (used during RECOVER)."""
        self.commit(other.operation, other.version, other.partition_set)

    def snapshot(self) -> tuple[int, int, frozenset[int]]:
        """The ``(o, v, P)`` triple as an immutable value."""
        return (self._operation, self._version, self._partition_set)

    def to_dict(self) -> dict:
        """A JSON-serialisable ``(o, v, P)`` document.

        The partition set is emitted sorted so identical states always
        serialise to identical bytes — the replicated service's
        recovery tests compare snapshots byte-for-byte.
        """
        return {
            "site": self.site_id,
            "operation": self._operation,
            "version": self._version,
            "partition_set": sorted(self._partition_set),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicaState":
        """Rebuild a state from :meth:`to_dict` output.

        Raises:
            ConfigurationError: on missing fields or invariant-breaking
                values (checked by the constructor).
        """
        try:
            return cls(
                site_id=int(data["site"]),
                operation=int(data["operation"]),
                version=int(data["version"]),
                partition_set=frozenset(
                    int(s) for s in data["partition_set"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed replica-state document: {exc}"
            ) from exc

    def __repr__(self) -> str:
        members = ",".join(map(str, sorted(self._partition_set)))
        return (
            f"ReplicaState(site={self.site_id}, o={self._operation}, "
            f"v={self._version}, P={{{members}}})"
        )


class ReplicaSet:
    """All physical copies of one replicated file.

    Construction initialises every copy exactly as the paper's worked
    example does: ``o = v = 1`` and ``P`` equal to the full copy set.
    """

    def __init__(self, copy_sites: Iterable[int]):
        sites = sorted(set(copy_sites))
        if not sites:
            raise ConfigurationError("a replicated file needs >= 1 copy")
        initial = frozenset(sites)
        self._states = {
            sid: ReplicaState(sid, partition_set=initial) for sid in sites
        }

    @classmethod
    def from_states(
        cls,
        states: Mapping[int, tuple[int, int, AbstractSet[int]]],
        copy_sites: Iterable[int] = (),
    ) -> "ReplicaSet":
        """Build a set holding the given ``{site: (o, v, P)}`` triples.

        Sites in *copy_sites* missing from *states* keep the paper's
        initial state (``o = v = 1``, ``P`` = the full copy set).  The
        replicated service uses this to evaluate a quorum round over
        the states its coordinator actually collected: unreachable
        copies stay at the initial placeholder, which the algorithms
        never read (they only consult states inside the requesting
        block) but which keeps static denominators like MCV's "all
        copies" correct.
        """
        sites = sorted(set(states) | set(copy_sites))
        replica_set = cls(sites)
        for sid, (operation, version, partition_set) in states.items():
            replica_set._states[sid] = ReplicaState(
                sid, operation, version, frozenset(partition_set)
            )
        return replica_set

    # ------------------------------------------------------------------
    @property
    def copy_sites(self) -> frozenset[int]:
        """Ids of every site holding a physical copy."""
        return frozenset(self._states)

    def state(self, site_id: int) -> ReplicaState:
        """The state of the copy at *site_id*.

        Raises:
            ConfigurationError: if that site holds no copy.
        """
        try:
            return self._states[site_id]
        except KeyError:
            raise ConfigurationError(f"no copy at site {site_id}") from None

    def __contains__(self, site_id: int) -> bool:
        return site_id in self._states

    def __iter__(self) -> Iterator[ReplicaState]:
        return iter(self._states[s] for s in sorted(self._states))

    def __len__(self) -> int:
        return len(self._states)

    # ------------------------------------------------------------------
    # queries used by the voting algorithms
    # ------------------------------------------------------------------
    def reachable(self, block: AbstractSet[int]) -> frozenset[int]:
        """``R`` — copy sites inside the communicating *block*."""
        return self.copy_sites & frozenset(block)

    def max_operation(self, among: AbstractSet[int]) -> int:
        """Highest operation number among the given copy sites."""
        sites = self._require_copies(among)
        return max(self._states[s].operation for s in sites)

    def max_version(self, among: AbstractSet[int]) -> int:
        """Highest version number among the given copy sites."""
        sites = self._require_copies(among)
        return max(self._states[s].version for s in sites)

    def current_sites(self, among: AbstractSet[int]) -> frozenset[int]:
        """``Q`` — sites whose operation number equals the block maximum."""
        sites = self._require_copies(among)
        top = max(self._states[s].operation for s in sites)
        return frozenset(s for s in sites if self._states[s].operation == top)

    def newest_sites(self, among: AbstractSet[int]) -> frozenset[int]:
        """``S`` — sites whose version number equals the block maximum."""
        sites = self._require_copies(among)
        top = max(self._states[s].version for s in sites)
        return frozenset(s for s in sites if self._states[s].version == top)

    def snapshot(self) -> tuple[tuple[int, int, frozenset[int]], ...]:
        """Every copy's ``(o, v, P)`` triple, in site order, as one value.

        Two snapshots are equal exactly when no copy's state differs.
        """
        # Inlined ReplicaState.snapshot: every quorum probe builds one.
        return tuple([(s._operation, s._version, s._partition_set)
                      for s in self._states.values()])

    def as_mapping(self) -> Mapping[int, tuple[int, int, frozenset[int]]]:
        """Snapshot of every copy's ``(o, v, P)`` triple, keyed by site id."""
        return {sid: st.snapshot() for sid, st in self._states.items()}

    def _require_copies(self, among: AbstractSet[int]) -> frozenset[int]:
        sites = self.copy_sites & frozenset(among)
        if not sites:
            raise ProtocolError(f"no copies among sites {sorted(among)}")
        return sites
