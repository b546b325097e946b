"""The SCONE client: the image creator's and operator's tool.

Wraps the Docker-like workflow without modifying the engine or its API
(the paper's explicit design constraint): build a secure image, sign
its digest, push it to the untrusted registry, verify a pulled image
before running it, and customise published images by adding layers.
"""

from repro.errors import IntegrityError
from repro.crypto.rsa import DEFAULT_KEY_BITS, RsaKeyPair
from repro.containers.build import SecureImageBuilder


class SconeClient:
    """Build / sign / push / verify / customise secure images."""

    def __init__(self, registry, cas, signing_key=None, key_hierarchy=None,
                 key_bits=DEFAULT_KEY_BITS):
        self.registry = registry
        self.cas = cas
        self.signing_key = signing_key or RsaKeyPair.generate(bits=key_bits)
        self.builder = SecureImageBuilder(key_hierarchy=key_hierarchy)

    def build_and_publish(self, name, entry_points, protected_files=None,
                          public_files=None, tag="latest", arguments=(),
                          environment=None):
        """The full trusted-side pipeline; returns the build result.

        After this call the image is in the (untrusted) registry, the
        SCF is registered with the CAS under the enclave measurement,
        and the image digest is signed by the creator.
        """
        result = self.builder.build(
            name,
            entry_points,
            protected_files=protected_files,
            public_files=public_files,
            tag=tag,
            arguments=arguments,
            environment=environment,
        )
        self.cas.register_scf(result.measurement, result.scf)
        signature = self.signing_key.sign(result.image.digest.encode("ascii"))
        self.registry.push(
            result.image,
            signature=signature,
            signer_public_key=self.signing_key.public_key,
        )
        return result

    def pull_verified(self, reference, trusted_signer=None):
        """Pull an image and verify the creator's signature on it.

        ``trusted_signer`` pins the expected public key; when omitted,
        the key recorded in the registry is used (trust-on-first-use).
        Raises :class:`~repro.errors.IntegrityError` if the image was
        modified after signing or carries no signature.
        """
        image = self.registry.pull(reference)
        record = self.registry.signature_for(reference)
        if record is None:
            raise IntegrityError("image %s is unsigned" % reference)
        signature, recorded_key = record
        public_key = trusted_signer or recorded_key
        try:
            public_key.verify(image.digest.encode("ascii"), signature)
        except IntegrityError as exc:
            raise IntegrityError(
                "image %s failed signature verification: modified after "
                "signing or wrong signer" % reference
            ) from exc
        return image

    def customize(self, reference, extra_files, new_tag, comment="customised"):
        """Add a file-system layer to a published image and re-sign it.

        Mirrors the paper's customisation story: the base image's
        protected content stays sealed by the original FS protection
        file; the customiser only layers additional (public) files and
        signs the resulting digest with *their* key.
        """
        base = self.pull_verified(reference)
        custom = base.add_layer(extra_files, comment=comment)
        custom.tag = new_tag
        signature = self.signing_key.sign(custom.digest.encode("ascii"))
        self.registry.push(
            custom,
            signature=signature,
            signer_public_key=self.signing_key.public_key,
        )
        return custom
