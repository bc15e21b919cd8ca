"""Level-partitioned CP-ABE with pipelined block transfer.

A message is split into one XOR-chained data block per level of its
access-policy tree; blocks encrypt, travel, and decrypt in an overlapped
two-stage pipeline, and a pairing-based tuple lets the receiver check
integrity without any master-key material.
"""

from .algebra import (
    G0Element,
    GTElement,
    Scalar,
    SUITE_ID,
    generator,
    hash_to_g0,
    kdf_mask,
    pair,
    pair_ratio,
)
from .errors import (
    DecodeError,
    PolicyNotSatisfiedError,
    PolicySyntaxError,
    StoreNotFoundError,
)
from .policy import AccessTree, format_policy, parse_policy, partition_levels, satisfies
from .scheme import (
    CiphertextBlock,
    DecryptionState,
    EncryptionContext,
    MasterKey,
    PublicKey,
    SecretKey,
    VerificationTuple,
    assemble_message,
    data_verification,
    encrypt_message,
    encryption_context,
    keygen,
    make_challenge,
    setup,
    verify_message,
)

__version__ = "0.1.0"

__all__ = [
    "AccessTree",
    "CiphertextBlock",
    "DecodeError",
    "DecryptionState",
    "EncryptionContext",
    "G0Element",
    "GTElement",
    "MasterKey",
    "PolicyNotSatisfiedError",
    "PolicySyntaxError",
    "PublicKey",
    "SUITE_ID",
    "Scalar",
    "SecretKey",
    "StoreNotFoundError",
    "VerificationTuple",
    "assemble_message",
    "data_verification",
    "encrypt_message",
    "encryption_context",
    "format_policy",
    "generator",
    "hash_to_g0",
    "kdf_mask",
    "keygen",
    "make_challenge",
    "pair",
    "pair_ratio",
    "parse_policy",
    "partition_levels",
    "satisfies",
    "setup",
    "verify_message",
]
