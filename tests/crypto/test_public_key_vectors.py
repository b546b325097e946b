"""Known-answer vectors for DH key generation and RSA signing.

The values were computed with plain ``pow(2, x, p)`` and full-width
``pow(h, d, n)``; the fixed-parameter kernels (the generator comb and
CRT signing) must reproduce them byte for byte, so a later "faster"
kernel that changes one fails here.  Public API only: the file runs
unchanged against either kernel.
"""

from repro.crypto.dh import DhKeyPair
from repro.crypto.primitives import DeterministicRandomSource
from repro.crypto.rsa import RsaKeyPair

DH_SEED_1_PUBLIC = int(
    "2d4885927cdbce10edc987a58b8eeefde0a6cefee1c95adea22dee4bec0855cb"
    "d16d27c92ccd6dcc6499b76eb242256fe3a84a79d0a1f09bcb3ad5133a51a761"
    "12dfbd0dd86892df9662a4899af0e4ba55204afb22346019dc34ad71843c2852"
    "77e124895dae38454e263338ec47e007f21adf522de42f16052978dec5297b26"
    "a38f2195672ddb4aa8440fce24866399e4991fcb06dcc2c17716834c012b2f2e"
    "d25a1a0bee95b76def13bfbb2dfb71d059e2f1f44363ade779d797b637964516"
    "79756fa0e2ffff5aa50764e4966bf9e5a529035e29f26e7cf852383a4cec56ae"
    "7014b889d6f4d26456a1853da8c1a1eda3f955ec4c25a28000946f8d48596311",
    16,
)
RSA_SEED_3_MODULUS = int(
    "94744b2a0b2becf54f780637bd6a4a55d413113209bb828fdbd9f391698ef03e"
    "3bc8340a1086d94ea32f824f27709cba41e44969d647c1c19cb833879f33eeeb",
    16,
)
RSA_SEED_3_SIGNATURE = int(
    "7e287dad87578c4a5da59d4a7df6c866168e80a54148555bdc7737df2dde67ac"
    "d99adb52ec5410aca803852c0fd5751c5313c5c75ad670cd8ff826606395a1fd",
    16,
)


def test_dh_public_value_vector():
    pair = DhKeyPair.generate(DeterministicRandomSource(1))
    assert pair.public_value == DH_SEED_1_PUBLIC


def test_rsa_signature_vector():
    keypair = RsaKeyPair.generate(
        512, random_source=DeterministicRandomSource(3)
    )
    assert keypair.public_key.modulus == RSA_SEED_3_MODULUS
    assert keypair.sign(b"securecloud quote") == RSA_SEED_3_SIGNATURE
