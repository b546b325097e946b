"""Server power model and cluster energy metering.

The linear-with-utilisation model is the standard abstraction for this
class of experiment (SPECpower curves are near-linear for the relevant
range): a powered-on server draws ``idle_watts`` plus utilisation times
the dynamic range; a powered-off server draws a small standby wattage.
GenPack's savings come from needing fewer powered-on, better-utilised
servers -- idle power is the enemy, and this model captures exactly
that.
"""

from repro.errors import ConfigurationError


class PowerModel:
    """Watts drawn by one server as a function of state."""

    def __init__(self, idle_watts=100.0, peak_watts=200.0, standby_watts=5.0):
        if not 0 <= standby_watts <= idle_watts <= peak_watts:
            raise ConfigurationError(
                "need standby <= idle <= peak wattage"
            )
        self.idle_watts = idle_watts
        self.peak_watts = peak_watts
        self.standby_watts = standby_watts

    def power(self, server):
        """Instantaneous draw of ``server`` in watts."""
        if not server.powered_on:
            return self.standby_watts
        dynamic = self.peak_watts - self.idle_watts
        return self.idle_watts + dynamic * server.utilization


class EnergyMeter:
    """Integrates cluster power over (virtual) time.

    Call :meth:`advance_to` at every event *before* mutating cluster
    state; the meter charges the elapsed interval at the pre-event
    power draw, which is exact for piecewise-constant utilisation.
    """

    def __init__(self, cluster, power_model=None):
        self.cluster = cluster
        self.power_model = power_model or PowerModel()
        self.energy_joules = 0.0
        self.server_on_seconds = 0.0
        self._last_time = 0.0

    @property
    def energy_kwh(self):
        """Accumulated energy in kilowatt-hours."""
        return self.energy_joules / 3.6e6

    def advance_to(self, time):
        """Account for the interval since the previous event."""
        if time < self._last_time:
            raise ConfigurationError(
                "energy meter moved backwards: %s < %s" % (time, self._last_time)
            )
        dt = time - self._last_time
        if dt > 0:
            watts = sum(
                self.power_model.power(server) for server in self.cluster.servers
            )
            self.energy_joules += watts * dt
            self.server_on_seconds += len(self.cluster.powered_on) * dt
            self._last_time = time

    def average_servers_on(self):
        """Mean number of powered-on servers over the metered window."""
        if self._last_time == 0:
            return len(self.cluster.powered_on)
        return self.server_on_seconds / self._last_time
