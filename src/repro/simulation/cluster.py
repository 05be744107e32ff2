"""Cluster topology model for the five machines.

The simulation needs realistic *sources*: node names in each machine's own
convention (``sn373`` on Spirit, ``tn231`` on Thunderbird, ``R02-M1-N0``
hardware coordinates on BG/L, ``c2-0c0s4n1`` Cray cabinet coordinates on
Red Storm), with roles — compute, admin, login, I/O — because "the chatty
sources tended to be the administrative nodes or those with persistent
problems" (paper, Figure 2b) and several failure scenarios are
role-specific (DDN controllers, service nodes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..systems.specs import SystemSpec


class NodeRole(enum.Enum):
    COMPUTE = "compute"
    ADMIN = "admin"
    LOGIN = "login"
    IO = "io"
    CONTROLLER = "controller"


@dataclass(frozen=True)
class Node:
    """One log source."""

    name: str
    role: NodeRole
    index: int


class Cluster:
    """The set of sources for one machine, with naming per its convention.

    Node counts honor the system spec; per-role splits follow the paper's
    architecture descriptions (Section 3.1).  ``chattiness`` gives each
    node a base weight for background-message attribution: admin and I/O
    nodes are orders of magnitude chattier than compute nodes, producing
    the rank-ordered source distribution of Figure 2(b).
    """

    def __init__(self, spec: SystemSpec, max_nodes: int = 4096):
        self.spec = spec
        self.nodes: List[Node] = []
        node_budget = min(spec.nodes, max_nodes)
        self._build(node_budget)
        self._weights = self._chattiness()
        self._pools: Dict[Tuple[NodeRole, ...], List[Node]] = {}

    def _build(self, node_budget: int) -> None:
        index = 0
        for name in self.spec.admin_nodes:
            self.nodes.append(Node(name, NodeRole.ADMIN, index))
            index += 1
        login_count = max(1, node_budget // 128)
        io_count = max(1, node_budget // 64)
        for i in range(login_count):
            self.nodes.append(
                Node(self._name_node("login", i), NodeRole.LOGIN, index)
            )
            index += 1
        for i in range(io_count):
            self.nodes.append(Node(self._name_node("io", i), NodeRole.IO, index))
            index += 1
        compute_count = max(1, node_budget - login_count - io_count)
        for i in range(compute_count):
            self.nodes.append(
                Node(self._name_node("compute", i), NodeRole.COMPUTE, index)
            )
            index += 1
        if self.spec.name == "redstorm":
            for i in range(8):
                self.nodes.append(Node(f"ddn{i}", NodeRole.CONTROLLER, index))
                index += 1

    def _name_node(self, kind: str, i: int) -> str:
        """Name a node in the machine's own convention."""
        system = self.spec.name
        if system == "bgl":
            if kind == "login":
                return f"bglfen{i}"
            if kind == "io":
                return f"bglio{i + 1}"
            # Rack / midplane / node-card coordinates, e.g. R02-M1-N3.
            rack, rest = divmod(i, 32)
            midplane, card = divmod(rest, 16)
            return f"R{rack:02d}-M{midplane}-N{card}"
        if system == "redstorm":
            if kind == "login":
                return f"rslogin{i}"
            if kind == "io":
                return f"rsoss{i}"
            # Cray cabinet coordinates, e.g. c2-0c0s4n1.
            cab, rest = divmod(i, 96)
            cage, rest2 = divmod(rest, 32)
            slot, node = divmod(rest2, 4)
            return f"c{cab}-0c{cage}s{slot}n{node}"
        prefix = {"login": self.spec.node_prefix + "-login",
                  "io": self.spec.node_prefix + "-io"}.get(kind)
        if prefix is not None:
            return f"{prefix}{i}"
        return f"{self.spec.node_prefix}{i + 1}"

    def by_role(self, role: NodeRole) -> List[Node]:
        return [node for node in self.nodes if node.role is role]

    @property
    def compute_nodes(self) -> List[Node]:
        return self.by_role(NodeRole.COMPUTE)

    def node_named(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in {self.spec.name} cluster")

    def chattiness(self) -> List[Tuple[Node, float]]:
        """Background-traffic weight per node.

        Admin nodes carry most service daemons (schedulers, monitors,
        mail), I/O and login nodes are moderately busy, and compute nodes
        follow a Zipf tail — together yielding the heavy-skewed per-source
        message distribution of Figure 2(b).
        """
        return list(self._weights)

    def _chattiness(self) -> List[Tuple[Node, float]]:
        weights: List[Tuple[Node, float]] = []
        compute_rank = 0
        for node in self.nodes:
            if node.role is NodeRole.ADMIN:
                weight = 2000.0
            elif node.role is NodeRole.IO:
                weight = 150.0
            elif node.role in (NodeRole.LOGIN, NodeRole.CONTROLLER):
                weight = 80.0
            else:
                compute_rank += 1
                weight = 10.0 / compute_rank ** 0.35
            weights.append((node, weight))
        return weights

    def __len__(self) -> int:
        return len(self.nodes)

    def sample_nodes(self, rng, count: int, roles: Sequence[NodeRole] = ()) -> List[Node]:
        """Sample ``count`` distinct nodes, optionally restricted by role."""
        key = tuple(roles)
        pool = self._pools.get(key)
        if pool is None:
            pool = [n for n in self.nodes if n.role in key] if key else self.nodes
            self._pools[key] = pool
        if not pool:
            raise ValueError(f"no nodes with roles {roles} in cluster")
        count = min(count, len(pool))
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in picks.tolist()]
