"""Multi-tenant secure front door over the SecureCloud planes.

The service layer the paper's deployment story implies but earlier
PRs only built pieces of: tenants register through an attested
gateway enclave, get isolated key hierarchies derived from a sealed
service root, and drive the real planes (chunked sealing, secure
map/reduce, sharded SCBR, sealed streams) through one admitted,
quota-checked, billed, and sealed-audit-trailed request pipeline.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.audit import (
    AuditChain,
    AuditEntry,
    chain_digest,
    genesis_hash,
    open_entry,
    seal_entry,
    verify_chain,
)
from repro.service.frontdoor import Receipt, SecureFrontDoor
from repro.service.gateway import (
    GATEWAY_CODE,
    dataset_aad,
    derive_job_key,
    derive_purpose_key,
    derive_tenant_root,
)
from repro.service.quota import (
    QUOTA_KINDS,
    QuotaLedger,
    TenantBilling,
    TenantQuota,
)

__all__ = [
    "AdmissionController",
    "AuditChain",
    "AuditEntry",
    "GATEWAY_CODE",
    "QUOTA_KINDS",
    "QuotaLedger",
    "Receipt",
    "SecureFrontDoor",
    "TenantBilling",
    "TenantQuota",
    "TokenBucket",
    "chain_digest",
    "dataset_aad",
    "derive_job_key",
    "derive_purpose_key",
    "derive_tenant_root",
    "genesis_hash",
    "open_entry",
    "seal_entry",
    "verify_chain",
]
