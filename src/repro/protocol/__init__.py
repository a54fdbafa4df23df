"""EPC Gen 2 protocol substrate: EPC codes, CRCs, inventory, baselines."""

from .aloha import (
    ALLOWED_FRAME_SIZES,
    FrameOutcome,
    choose_frame_size,
    inventory_until_aloha,
    run_aloha_frame,
)
from .crc import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    crc5,
    crc16,
    crc16_bytes,
    int_to_bits,
    verify_crc16,
)
from .dense_reader import (
    CO_CHANNEL_DWELL_PROBABILITY,
    DRM_ISOLATION_DB,
    NON_DRM_CHANNEL_ISOLATION_DB,
    ReaderRadio,
    carrier_coupling_db,
    interference_at_receiver_dbm,
    tdma_schedule,
)
from .epc import EpcError, EpcFactory, Sgtin96
from .estimation import (
    averaged_zero_slot_estimate,
    collision_fraction,
    vogt_estimate,
    vogt_lower_bound,
    zero_slot_estimate,
)
from .gen2 import (
    SILENT,
    ChannelFn,
    InventoryResult,
    InventorySession,
    QAlgorithm,
    TagChannel,
    inventory_until,
    run_inventory_round,
)
from .timing import DEFAULT_TIMING, PAPER_SECONDS_PER_TAG, Gen2Timing
from .tree import TreeWalkStats, inventory_tree

from .commands import (
    AckCommand,
    CommandError,
    DivideRatio,
    QueryAdjustCommand,
    QueryCommand,
    QueryRepCommand,
    SelectCommand,
    Session,
    TagEncoding,
    Target,
    decode_command,
)
from .select import (
    EPC_BANK_OFFSET_BITS,
    SelectError,
    SelectionState,
    mask_for_prefix_hex,
    tag_matches,
)

from .tag_state import Gen2TagMachine, TagState, TagStateError

__all__ = [
    "Gen2TagMachine",
    "TagState",
    "TagStateError",

    "AckCommand",
    "CommandError",
    "DivideRatio",
    "QueryAdjustCommand",
    "QueryCommand",
    "QueryRepCommand",
    "SelectCommand",
    "Session",
    "TagEncoding",
    "Target",
    "decode_command",
    "EPC_BANK_OFFSET_BITS",
    "SelectError",
    "SelectionState",
    "mask_for_prefix_hex",
    "tag_matches",

    "ALLOWED_FRAME_SIZES",
    "FrameOutcome",
    "choose_frame_size",
    "inventory_until_aloha",
    "run_aloha_frame",
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "crc5",
    "crc16",
    "crc16_bytes",
    "int_to_bits",
    "verify_crc16",
    "CO_CHANNEL_DWELL_PROBABILITY",
    "DRM_ISOLATION_DB",
    "NON_DRM_CHANNEL_ISOLATION_DB",
    "ReaderRadio",
    "carrier_coupling_db",
    "interference_at_receiver_dbm",
    "tdma_schedule",
    "EpcError",
    "EpcFactory",
    "Sgtin96",
    "averaged_zero_slot_estimate",
    "collision_fraction",
    "vogt_estimate",
    "vogt_lower_bound",
    "zero_slot_estimate",
    "SILENT",
    "ChannelFn",
    "InventoryResult",
    "InventorySession",
    "QAlgorithm",
    "TagChannel",
    "inventory_until",
    "run_inventory_round",
    "DEFAULT_TIMING",
    "PAPER_SECONDS_PER_TAG",
    "Gen2Timing",
    "TreeWalkStats",
    "inventory_tree",
]
