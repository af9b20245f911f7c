//! The socket runtime's link-control protocol.
//!
//! Control frames share the length-prefixed stream with data frames and
//! are distinguished by their destination word: data frames carry a
//! party id or [`AGGREGATOR_DEST`](flips_fl::message::AGGREGATOR_DEST)
//! (`u64::MAX`) in the first eight bytes, control frames carry
//! [`NET_CONTROL_DEST`] (`u64::MAX - 1`). Both sides strip control
//! frames *below* the [`Transport`](flips_fl::Transport) seam, so the
//! protocol state machines — and the chaos schedule's per-link frame
//! indices — see exactly the data-frame sequences the in-memory
//! multi-link lockstep ([`flips_fl::memory_wire`]) sees.
//!
//! Six messages exist:
//!
//! - [`ControlMsg::Hello`] — the first frame on every party→server
//!   connection, naming the link slot (shard) the connection serves.
//!   Accept order over TCP is nondeterministic; the Hello makes link
//!   identity explicit instead of accidental. A fresh connection sends
//!   session token 0; a *reconnecting* party presents the token its
//!   [`ControlMsg::HelloAck`] issued plus its data-frame counters, and
//!   the server re-attaches the connection to the parked link state and
//!   retransmits exactly the frames the party never received.
//! - [`ControlMsg::HelloAck`] — the server's answer to a Hello: the
//!   session token to present on reconnect, the server's own data
//!   counters (the party retransmits its unacknowledged frames from
//!   `received` on), whether the session is fresh, and how many
//!   [`ControlMsg::RefSync`] frames follow.
//! - [`ControlMsg::RefSync`] — server→party delta-codec reference
//!   seeding, used after a checkpoint restore: the restored server's
//!   per-link codec references are pushed to the (fresh) party process
//!   so both wire ends re-key to the same reference model before the
//!   first data frame.
//! - [`ControlMsg::StatusReq`] / [`ControlMsg::Status`] — the
//!   quiescence probe (see [`crate::server`]'s module docs). A party
//!   answers a probe only after fully pumping its pool, so per-link TCP
//!   FIFO turns the reply into a barrier: every data frame the party
//!   sent before the reply is already processed by the coordinator when
//!   the reply is read. Both directions carry the sender's data
//!   counters, which double as retransmit acknowledgements: each side
//!   prunes its retained-frame queue to the peer's `received`.
//! - [`ControlMsg::Shutdown`] — the coordinator's end-of-run notice.

use bytes::BufMut;
use flips_core::ml::rng::splitmix64;
use flips_fl::format::{put_bool, put_f32s, Reader};
use flips_fl::FlError;

/// Destination word marking a control frame. One below
/// [`flips_fl::message::AGGREGATOR_DEST`], far outside any party-id
/// space a roster can produce.
pub const NET_CONTROL_DEST: u64 = u64::MAX - 1;

const OP_HELLO: u8 = 0x01;
const OP_STATUS_REQ: u8 = 0x02;
const OP_STATUS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_HELLO_ACK: u8 = 0x05;
const OP_REF_SYNC: u8 = 0x06;

/// A link-control message (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Party → server: this connection serves link slot `shard`. A
    /// nonzero `token` claims an existing session (reconnect); the
    /// counters tell the server what the party has already seen.
    Hello {
        /// The link slot, `0..links`.
        shard: u32,
        /// Session token: 0 for a fresh connection, the
        /// [`ControlMsg::HelloAck`]-issued token on reconnect.
        token: u64,
        /// Data frames this party has received on the link so far.
        received: u64,
        /// Data frames this party has sent on the link so far.
        sent: u64,
    },
    /// Server → party: the session handshake answer.
    HelloAck {
        /// The session token to present when reconnecting.
        token: u64,
        /// Data frames the server has received on this link so far —
        /// the party retransmits its retained frames from here on.
        received: u64,
        /// Data frames the server has sent on this link so far.
        sent: u64,
        /// Whether this is a fresh session (`true`) or a resumed one.
        fresh: bool,
        /// How many [`ControlMsg::RefSync`] frames follow immediately.
        ref_syncs: u32,
    },
    /// Server → party: seed the delta-codec reference for `job` (after
    /// a checkpoint restore, so a fresh party decodes the restored
    /// server's deltas).
    RefSync {
        /// The job whose codec reference is being seeded.
        job: u64,
        /// The round the reference was broadcast in.
        round: u64,
        /// The reference model parameters.
        params: Vec<f32>,
    },
    /// Server → party: report your frame counters (probe `seq`). The
    /// server's own counters ride along as retransmit
    /// acknowledgements.
    StatusReq {
        /// Probe sequence number, echoed in the reply.
        seq: u64,
        /// Data frames the server has received on this link so far.
        received: u64,
        /// Data frames the server has sent on this link so far.
        sent: u64,
    },
    /// Party → server: counter snapshot taken *after* a full pool pump.
    Status {
        /// The probe this answers.
        seq: u64,
        /// Data frames the party has received on this link so far.
        received: u64,
        /// Data frames the party has sent on this link so far.
        sent: u64,
    },
    /// Server → party: the run is over; drain and exit.
    Shutdown,
}

/// Whether a frame is a control frame (by destination word).
pub fn is_control_frame(frame: &[u8]) -> bool {
    flips_fl::message::frame_dest(frame) == Some(NET_CONTROL_DEST)
}

impl ControlMsg {
    /// Encodes into a wire frame (destination word + opcode + fields,
    /// all little-endian). The length prefix is the stream transport's
    /// job, as for data frames.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.put_u64_le(NET_CONTROL_DEST);
        match self {
            ControlMsg::Hello { shard, token, received, sent } => {
                out.put_u8(OP_HELLO);
                out.put_u32_le(*shard);
                out.put_u64_le(*token);
                out.put_u64_le(*received);
                out.put_u64_le(*sent);
            }
            ControlMsg::HelloAck { token, received, sent, fresh, ref_syncs } => {
                out.put_u8(OP_HELLO_ACK);
                out.put_u64_le(*token);
                out.put_u64_le(*received);
                out.put_u64_le(*sent);
                put_bool(&mut out, *fresh);
                out.put_u32_le(*ref_syncs);
            }
            ControlMsg::RefSync { job, round, params } => {
                out.put_u8(OP_REF_SYNC);
                out.put_u64_le(*job);
                out.put_u64_le(*round);
                out.put_u32_le(params.len() as u32);
                put_f32s(&mut out, params);
            }
            ControlMsg::StatusReq { seq, received, sent } => {
                out.put_u8(OP_STATUS_REQ);
                out.put_u64_le(*seq);
                out.put_u64_le(*received);
                out.put_u64_le(*sent);
            }
            ControlMsg::Status { seq, received, sent } => {
                out.put_u8(OP_STATUS);
                out.put_u64_le(*seq);
                out.put_u64_le(*received);
                out.put_u64_le(*sent);
            }
            ControlMsg::Shutdown => out.put_u8(OP_SHUTDOWN),
        }
        out
    }

    /// Decodes a control frame ([`is_control_frame`] must already hold).
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] for a truncated frame, an unknown opcode or
    /// bytes past the message's end — a peer speaking a different
    /// protocol revision, not recoverable.
    pub fn decode(frame: &[u8]) -> Result<ControlMsg, FlError> {
        let mut r = Reader::new(frame, "control frame");
        r.u64()?; // the destination word `is_control_frame` matched
        let msg = match r.u8()? {
            OP_HELLO => ControlMsg::Hello {
                shard: r.u32()?,
                token: r.u64()?,
                received: r.u64()?,
                sent: r.u64()?,
            },
            OP_HELLO_ACK => ControlMsg::HelloAck {
                token: r.u64()?,
                received: r.u64()?,
                sent: r.u64()?,
                fresh: r.bool()?,
                ref_syncs: r.u32()?,
            },
            OP_REF_SYNC => ControlMsg::RefSync {
                job: r.u64()?,
                round: r.u64()?,
                params: {
                    let len = r.u32()?;
                    r.f32s(len.into())?.collect()
                },
            },
            OP_STATUS_REQ => {
                ControlMsg::StatusReq { seq: r.u64()?, received: r.u64()?, sent: r.u64()? }
            }
            OP_STATUS => ControlMsg::Status { seq: r.u64()?, received: r.u64()?, sent: r.u64()? },
            OP_SHUTDOWN => ControlMsg::Shutdown,
            op => return Err(FlError::Codec(format!("unknown control opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// The session token the server issues for link `slot`: a nonzero pure
/// function of the slot, so a deterministic run issues deterministic
/// tokens (token 0 is reserved to mean "fresh connection" in a
/// [`ControlMsg::Hello`]).
pub fn session_token(slot: u32) -> u64 {
    splitmix64(0x5E55_1011_u64 ^ u64::from(slot)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            ControlMsg::Hello { shard: 3, token: 0, received: 0, sent: 0 },
            ControlMsg::Hello { shard: 1, token: 0xDEAD, received: 42, sent: 17 },
            ControlMsg::HelloAck { token: 7, received: 3, sent: 9, fresh: true, ref_syncs: 0 },
            ControlMsg::HelloAck { token: 7, received: 3, sent: 9, fresh: false, ref_syncs: 2 },
            ControlMsg::RefSync { job: 9, round: 4, params: vec![1.0, -2.5, f32::NAN] },
            ControlMsg::RefSync { job: 9, round: 0, params: Vec::new() },
            ControlMsg::StatusReq { seq: 42, received: 5, sent: 6 },
            ControlMsg::Status { seq: 42, received: 7, sent: 9 },
            ControlMsg::Shutdown,
        ] {
            let wire = msg.encode();
            assert!(is_control_frame(&wire));
            let decoded = ControlMsg::decode(&wire).unwrap();
            // NaN payloads compare bit-wise through re-encoding.
            assert_eq!(decoded.encode(), wire);
        }
    }

    /// The parent commit's bytes, one frame per variant: a field moved
    /// in both the encoder and the decoder still fails here.
    #[test]
    fn every_variant_holds_its_golden_frame() {
        for (msg, want) in [
            (
                ControlMsg::Hello { shard: 1, token: 0xDEAD, received: 42, sent: 17 },
                "feffffffffffffff0101000000adde0000000000002a000000000000001100000000000000",
            ),
            (
                ControlMsg::HelloAck { token: 7, received: 3, sent: 9, fresh: true, ref_syncs: 2 },
                "feffffffffffffff050700000000000000030000000000000009000000000000000102000000",
            ),
            (
                ControlMsg::RefSync { job: 9, round: 4, params: vec![1.0, -2.5] },
                "feffffffffffffff0609000000000000000400000000000000020000000000803f000020c0",
            ),
            (
                ControlMsg::StatusReq { seq: 42, received: 5, sent: 6 },
                "feffffffffffffff022a0000000000000005000000000000000600000000000000",
            ),
            (
                ControlMsg::Status { seq: 43, received: 7, sent: 9 },
                "feffffffffffffff032b0000000000000007000000000000000900000000000000",
            ),
            (ControlMsg::Shutdown, "feffffffffffffff04"),
        ] {
            let hex: String = msg.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{msg:?}");
            assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn data_frames_are_not_control_frames() {
        let data = 5u64.to_le_bytes().to_vec();
        assert!(!is_control_frame(&data));
        assert!(!is_control_frame(&u64::MAX.to_le_bytes()));
        assert!(!is_control_frame(&[1, 2, 3]));
    }

    #[test]
    fn truncated_and_unknown_control_frames_are_rejected() {
        assert!(ControlMsg::decode(&NET_CONTROL_DEST.to_le_bytes()).is_err());
        let mut unknown = NET_CONTROL_DEST.to_le_bytes().to_vec();
        unknown.push(0x7F);
        assert!(ControlMsg::decode(&unknown).is_err());
        for msg in [
            ControlMsg::Status { seq: 1, received: 2, sent: 3 },
            ControlMsg::Hello { shard: 1, token: 2, received: 3, sent: 4 },
            ControlMsg::HelloAck { token: 1, received: 2, sent: 3, fresh: true, ref_syncs: 4 },
            ControlMsg::RefSync { job: 1, round: 2, params: vec![1.0, 2.0] },
        ] {
            let mut short = msg.encode();
            short.truncate(short.len() - 1);
            assert!(ControlMsg::decode(&short).is_err(), "truncated {msg:?} must not decode");
            // A message is exactly one frame: a stale tail is rejected,
            // not ignored.
            let mut long = msg.encode();
            long.push(0xFF);
            assert!(ControlMsg::decode(&long).is_err(), "{msg:?} decoded with a trailing byte");
        }
        let mut long = ControlMsg::Shutdown.encode();
        long.push(0);
        assert!(ControlMsg::decode(&long).is_err(), "Shutdown decoded with a trailing byte");
    }

    #[test]
    fn ref_sync_length_must_match_the_payload() {
        let mut wire = ControlMsg::RefSync { job: 1, round: 2, params: vec![1.0, 2.0] }.encode();
        // Claim three params while carrying two.
        wire[8 + 17..8 + 21].copy_from_slice(&3u32.to_le_bytes());
        assert!(ControlMsg::decode(&wire).is_err());
    }

    #[test]
    fn hello_ack_fresh_byte_is_strict() {
        let mut wire =
            ControlMsg::HelloAck { token: 1, received: 2, sent: 3, fresh: true, ref_syncs: 0 }
                .encode();
        wire[8 + 25] = 2;
        assert!(ControlMsg::decode(&wire).is_err());
    }

    #[test]
    fn session_tokens_are_nonzero_and_distinct_per_slot() {
        let tokens: Vec<u64> = (0..64).map(session_token).collect();
        assert!(tokens.iter().all(|&t| t != 0), "token 0 means fresh");
        let mut unique = tokens.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tokens.len(), "slots must not share tokens");
        assert_eq!(session_token(3), session_token(3), "tokens are deterministic");
    }
}
