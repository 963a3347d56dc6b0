"""Executable HetExchange operators: router, device-crossing, mem-move.

These are the paper's trait converters (Sections 3 and 4.2).  They operate
on packets (:class:`~repro.storage.block.Block`) and never look at packet
payloads — routing decisions use only packet metadata, which is exactly the
property the data-packing trait guarantees.

Exchange is a *streaming* stage of the morsel pipeline: a router decides
from packet metadata alone, never waiting for — or holding — the whole
batch.  Because exchange operators are payload-transparent, they are
*fusion pass-throughs*
(:func:`repro.codegen.pipeline.is_fusion_passthrough`): a pipeline-fused
chain streams morsels straight through a router, mem-move or device
crossing — the executor replays their control/transfer costs per stage
while the payload flows by untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ExecutionError
from ..hardware.device import Device
from ..hardware.topology import Topology
from ..relational.physical import RoutingPolicy
from ..storage.block import Block
from .base import OpCost


@dataclass
class RouterState:
    """Mutable routing state (bytes already assigned per consumer)."""

    assigned_bytes: dict[str, int] = field(default_factory=dict)

    def add(self, consumer: str, nbytes: int) -> None:
        self.assigned_bytes[consumer] = self.assigned_bytes.get(consumer, 0) + nbytes


class Router:
    """Distributes packets over consumer devices according to a policy.

    The router is a CPU-side operator: task assignment and load balancing
    are control-flow operations and therefore CPU-friendly (Section 4.2).
    Consumers may be heterogeneous — that is how horizontal co-processing
    plans split work between CPU cores and GPUs (Section 5).
    """

    def __init__(self, consumers: Sequence[Device],
                 policy: RoutingPolicy = RoutingPolicy.LOAD_AWARE, *,
                 weights: dict[str, float] | None = None) -> None:
        if not consumers:
            raise ExecutionError("a router needs at least one consumer")
        self.consumers = list(consumers)
        self.policy = policy
        self.weights = weights or {}
        self.state = RouterState()
        self._round_robin = 0

    def throughput_weight(self, device: Device) -> float:
        """Relative processing rate used by the load-aware policy."""
        if device.name in self.weights:
            return self.weights[device.name]
        return device.spec.memory_bandwidth_gib_s

    def route(self, block: Block) -> Device:
        """Pick the consumer device for one packet (metadata only)."""
        if self.policy is RoutingPolicy.ROUND_ROBIN:
            device = self.consumers[self._round_robin % len(self.consumers)]
            self._round_robin += 1
        elif self.policy is RoutingPolicy.HASH:
            if block.partition is None:
                raise ExecutionError(
                    "hash routing needs packets tagged with a partition id"
                )
            device = self.consumers[block.partition % len(self.consumers)]
        elif self.policy is RoutingPolicy.LOCALITY_AWARE:
            local = [device for device in self.consumers
                     if device.name == block.location]
            device = local[0] if local else self._least_loaded(block)
        else:  # LOAD_AWARE
            device = self._least_loaded(block)
        self.state.add(device.name, block.nbytes)
        return device

    def _least_loaded(self, block: Block) -> Device:
        def normalized_load(device: Device) -> float:
            assigned = self.state.assigned_bytes.get(device.name, 0)
            return (assigned + block.nbytes) / self.throughput_weight(device)

        return min(self.consumers, key=normalized_load)

    def assignments(self) -> dict[str, int]:
        """Bytes assigned per consumer so far."""
        return dict(self.state.assigned_bytes)


def device_crossing_cost(device: Device) -> OpCost:
    """Cost of transferring execution control to ``device``.

    Crossing into a GPU costs a kernel launch; crossing back to the CPU is
    a cheap callback.
    """
    cost = OpCost()
    if device.is_gpu:
        cost.add("kernel-launch", device.cost.kernel_launch())
    else:
        cost.add("control-transfer", 1e-6)
    return cost


def mem_move(block: Block, topology: Topology, destination: str, *,
             earliest: float = 0.0, label: str = "mem-move") -> tuple[Block, float]:
    """Move one packet to another memory node, charging the link clocks.

    Returns the relocated packet and the simulated time at which it becomes
    available at the destination.  Moving to the node the packet already
    lives on is free (the locality trait is already satisfied).
    """
    if block.location == destination:
        return block, earliest
    destination_device = topology.device(destination)
    if not destination_device.fits_in_memory(block.nbytes):
        raise ExecutionError(
            f"packet of {block.nbytes} bytes does not fit on {destination}"
        )
    route = topology.route(block.location, destination)
    ready = route.transfer(block.nbytes, earliest=earliest, label=label)
    return block.with_location(destination), ready


def broadcast(block: Block, topology: Topology, destinations: Sequence[str], *,
              earliest: float = 0.0) -> tuple[dict[str, Block], float]:
    """Broadcast one packet to several memory nodes with minimal copies.

    The memory topology is taken into account: the packet crosses each link
    at most once (multi-cast), so broadcasting to two GPUs attached to
    different sockets does not send the data twice over the same QPI link.
    """
    copies: dict[str, Block] = {}
    ready_overall = earliest
    links_used: set[str] = set()
    for destination in destinations:
        if destination == block.location:
            copies[destination] = block
            continue
        route = topology.route(block.location, destination)
        ready = earliest
        for link in route.links:
            if link.name in links_used:
                # Multi-cast: this hop was already paid for by a previous
                # destination sharing the path prefix.
                ready = max(ready, link.clock.available_at)
                continue
            record = link.transfer(block.nbytes, earliest=ready,
                                   label="broadcast")
            ready = record.end
            links_used.add(link.name)
        copies[destination] = block.with_location(destination)
        ready_overall = max(ready_overall, ready)
    return copies, ready_overall


def zip_partitions(left: Sequence[Block], right: Sequence[Block]) -> list[tuple[Block, Block]]:
    """The ``zip`` operator: match corresponding partitions into co-partitions."""
    if len(left) != len(right):
        raise ExecutionError(
            f"zip requires equally many partitions on both sides "
            f"({len(left)} vs {len(right)})"
        )
    pairs: list[tuple[Block, Block]] = []
    for index, (left_block, right_block) in enumerate(zip(left, right)):
        if (left_block.partition is not None and right_block.partition is not None
                and left_block.partition != right_block.partition):
            raise ExecutionError(
                "zip received misaligned partitions "
                f"({left_block.partition} vs {right_block.partition})"
            )
        pairs.append((left_block, right_block))
    return pairs
