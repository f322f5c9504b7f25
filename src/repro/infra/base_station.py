"""Cellular base stations.

Base stations provide the wide-area uplink of the *mobile cloud*
configuration in the paper's Fig. 2 comparison.  They have long radio
range but add WAN latency toward the central cloud, and only vehicles
carrying a cellular radio can use them.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..geometry import Vec2
from ..mobility.equipment import RadioKind
from ..mobility.vehicle import Vehicle
from ..net.channel import WirelessChannel
from ..net.node import FixedNode
from ..sim.world import World

_bs_counter = itertools.count(1)


def next_base_station_id() -> str:
    """Return a fresh process-unique base-station id."""
    return f"bs-{next(_bs_counter)}"


def reset_base_station_ids() -> None:
    """Rewind the process-global base-station id counter to ``bs-1``."""
    global _bs_counter
    _bs_counter = itertools.count(1)


class BaseStation(FixedNode):
    """A cellular tower with wide coverage and WAN backhaul."""

    def __init__(
        self,
        world: World,
        channel: WirelessChannel,
        position: Vec2,
        station_id: Optional[str] = None,
        radio_range_m: Optional[float] = None,
    ) -> None:
        range_m = (
            radio_range_m
            if radio_range_m is not None
            else world.config.channel.base_station_range_m
        )
        super().__init__(
            world,
            channel,
            station_id if station_id is not None else next_base_station_id(),
            position,
            range_m,
        )
        self.wan_delay_s = world.config.channel.wan_delay_s
        self.damaged = False

    def can_serve(self, vehicle: Vehicle) -> bool:
        """True if the vehicle has a cellular radio and is in coverage."""
        if self.damaged or not self.online:
            return False
        if not vehicle.equipment.has_radio(RadioKind.CELLULAR):
            return False
        return self.position.distance_to(vehicle.position) <= self.radio_range_m

    def damage(self) -> None:
        """Take the station out of service (disaster model)."""
        self.damaged = True
        self.go_offline()

    def repair(self) -> None:
        """Return the station to service."""
        self.damaged = False
        self.go_online()
