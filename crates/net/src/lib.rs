//! `asr-net`: the binary wire protocol for client/server serving.
//!
//! Every message travels as one WAL-style frame — `[len][crc32][payload]`,
//! built by [`asr_durable::frame`] and verified on receipt exactly the way
//! [`asr_durable::scan_wal`] verifies log records.  Integrity is enforced
//! end-to-end by the frame CRC, *not* by the transport: the transport is
//! the existing [`asr_durable::Channel`] trait, so the fault-injecting
//! [`asr_durable::FaultyChannel`] (drops, truncations, bit flips,
//! duplicates, reorders) carries over unchanged as the network test
//! harness.  A damaged frame decodes to `None`, is NACKed, and is re-sent —
//! never silently mis-executed.
//!
//! The payload grammar (see DESIGN.md "Wire protocol") is a direction byte
//! (`Q` request / `R` response), a little-endian request id, and a tagged
//! body covering the shell grammar — OQL queries, `\analyze`, mutations,
//! admin ops — plus two reads of one stored partition (probe and scan),
//! the requests the server's snapshot worker pool answers.

mod client;
mod wire;

pub use client::{ClientError, ClientStats, WireClient};
pub use wire::{
    decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage, MAX_FRAME_LEN,
};
