"""The SGX cycle cost model.

All constants are CPU cycles on a 2.6 GHz core (SCONE's testbed
frequency).  Provenance:

========================  =========  =========================================
Quantity                  Cycles     Source
========================  =========  =========================================
LLC hit                   40         typical Haswell/Broadwell Xeon
DRAM access (native)      200        typical
MEE read (enclave LLC     1,200      SGX Explained Sec. 6; SCONE reports
miss served from EPC)                5.5-7.5x read penalty past the LLC
EPC page fault            40,000     SGX Explained / Eleos: 12k-40k cycles
(OS-serviced eviction +              per EPC page swapped (encrypt + evict +
reload of a 4 KiB page)              fault + reload + decrypt + verify)
Enclave transition        8,000      SCONE: ~3 us round trip incl. TLB flush
(EENTER/EEXIT pair)
========================  =========  =========================================

The EPC holds 128 MiB of physical memory, of which roughly a quarter is
consumed by the Enclave Page Cache Map, version arrays, and SGX runtime
structures, leaving ~93.5 MiB for application pages.  This reservation
is why the paper's Figure 3 shows performance degrading *before* the
128 MiB mark.
"""

from dataclasses import dataclass, replace

MIB = 1024 * 1024


@dataclass(frozen=True)
class MemoryCosts:
    """Cycle costs and geometry of the simulated memory hierarchy."""

    llc_hit_cycles: int = 40
    dram_cycles: int = 200
    mee_read_cycles: int = 1_200
    page_fault_cycles: int = 40_000
    transition_cycles: int = 8_000
    line_size: int = 64
    page_size: int = 4_096
    llc_capacity: int = 8 * MIB
    epc_capacity: int = 128 * MIB
    epc_metadata_fraction: float = 0.27

    @property
    def epc_usable(self):
        """EPC bytes available to application pages."""
        return int(self.epc_capacity * (1.0 - self.epc_metadata_fraction))

    def scaled(self, **overrides):
        """A copy of this cost model with selected fields replaced."""
        return replace(self, **overrides)


DEFAULT_COSTS = MemoryCosts()
