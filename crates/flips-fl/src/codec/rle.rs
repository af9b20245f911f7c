//! The [`ModelCodec::DeltaLossless`](super::ModelCodec::DeltaLossless)
//! stage: zero-run-length coding of the shuffled delta planes, as
//! `(kind, u16 count[, bytes])` tokens.

use crate::format::Reader;
use crate::FlError;

pub(super) const RUN_ZERO: u8 = 0x00;
pub(super) const RUN_LITERAL: u8 = 0x01;
/// Max bytes one token covers (u16 count).
pub(super) const RUN_CAP: usize = u16::MAX as usize;
/// Zero runs shorter than this fold into the surrounding literal — a
/// zero token costs 3 bytes, so breaking a literal for less loses.
const MIN_ZERO_RUN: usize = 4;

/// Appends the tokens of a run of `len` zeros: `ceil(len / RUN_CAP)`
/// of them, O(1) in the model size.
pub(super) fn put_zero_run(mut len: usize, out: &mut Vec<u8>) {
    while len > 0 {
        let n = len.min(RUN_CAP);
        out.push(RUN_ZERO);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        len -= n;
    }
}

/// Compresses `src` into `out`.
pub(super) fn compress(src: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < src.len() {
        if src[i] == 0 {
            let run = src[i..].iter().position(|&b| b != 0).unwrap_or(src.len() - i);
            if run >= MIN_ZERO_RUN {
                put_zero_run(run, out);
                i += run;
                continue;
            }
        }
        // Literal run: until a qualifying zero run begins (or the token
        // count saturates).
        let start = i;
        while i < src.len() && i - start < RUN_CAP {
            if src[i] == 0 {
                let zrun = src[i..].iter().position(|&b| b != 0).unwrap_or(src.len() - i);
                if zrun >= MIN_ZERO_RUN {
                    break;
                }
                i = (i + zrun).min(start + RUN_CAP);
            } else {
                i += 1;
            }
        }
        out.push(RUN_LITERAL);
        out.extend_from_slice(&((i - start) as u16).to_le_bytes());
        out.extend_from_slice(&src[start..i]);
    }
}

/// If the stream is exclusively well-formed zero-run tokens, returns
/// the total byte count they cover (`None` otherwise — fall through to
/// [`decompress`], which also produces the errors).
pub(super) fn zero_only_stream_len(src: &[u8]) -> Option<usize> {
    let mut r = Reader::new(src, "RLE stream");
    let mut total = 0usize;
    while r.remaining() > 0 {
        let (kind, count) = (r.u8().ok()?, r.u16().ok()?);
        if kind != RUN_ZERO || count == 0 {
            return None;
        }
        total = total.checked_add(count.into())?;
    }
    Some(total)
}

/// Decompresses a token stream into exactly `expect` bytes.
pub(super) fn decompress(src: &[u8], expect: usize, out: &mut Vec<u8>) -> Result<(), FlError> {
    let mut r = Reader::new(src, "RLE stream");
    out.clear();
    while r.remaining() > 0 {
        let (kind, count) = (r.u8()?, usize::from(r.u16()?));
        if count == 0 {
            return Err(FlError::Codec("empty RLE token".into()));
        }
        if out.len() + count > expect {
            return Err(FlError::Codec("RLE stream overflows the delta planes".into()));
        }
        match kind {
            RUN_ZERO => out.resize(out.len() + count, 0),
            RUN_LITERAL => out.extend_from_slice(r.bytes(count)?),
            other => return Err(FlError::Codec(format!("unknown RLE token kind {other}"))),
        }
    }
    if out.len() != expect {
        return Err(FlError::Codec(format!(
            "RLE stream yields {} bytes, delta planes need {expect}",
            out.len()
        )));
    }
    Ok(())
}
