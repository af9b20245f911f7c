//! IEEE 754 binary16 conversion (no half-precision crate offline) and
//! the [`ModelCodec::F16`](super::ModelCodec::F16) payload body.

use crate::format::Reader;
use crate::FlError;
use bytes::{BufMut, BytesMut};

/// Writes `params` as little-endian half-precision bits.
pub(super) fn put_f16s(out: &mut BytesMut, params: &[f32]) {
    for &p in params {
        out.put_slice(&f32_to_f16_bits(p).to_le_bytes());
    }
}

/// Reads `count` half-precision values onto `out`.
pub(super) fn read_f16s(r: &mut Reader<'_>, count: u64, out: &mut Vec<f32>) -> Result<(), FlError> {
    let n = r.count(count, 2)?;
    let raw = r.bytes(2 * n)?.chunks_exact(2);
    out.extend(raw.map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]))));
    Ok(())
}

/// Converts an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
/// Overflow saturates to ±∞; NaN stays NaN (a payload bit is forced so
/// a truncated-payload NaN cannot collapse into an infinity).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp32 == 0xFF {
        if man == 0 {
            return sign | 0x7C00; // ±inf
        }
        let payload = ((man >> 13) as u16) & 0x03FF;
        return sign | 0x7C00 | 0x0200 | payload; // NaN, quiet bit forced
    }
    let exp = exp32 - 127 + 15;
    if exp >= 0x1F {
        return sign | 0x7C00; // overflow → ±inf
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal half: shift the (implicit-1) mantissa into place.
        let man = man | 0x0080_0000;
        let shift = (14 - exp) as u32; // 14..=24
        let half = (man >> shift) as u16;
        let round_bit = 1u32 << (shift - 1);
        let rem = man & ((1u32 << shift) - 1);
        if rem > round_bit || (rem == round_bit && half & 1 == 1) {
            return sign | (half + 1); // may carry into the exponent: correct
        }
        return sign | half;
    }
    let mut half = ((exp as u16) << 10) | ((man >> 13) as u16);
    let rem = man & 0x1FFF;
    if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half += 1; // mantissa carry may roll into the exponent: correct
    }
    sign | half
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // ±0
            } else {
                // Subnormal half = man · 2⁻²⁴, exact in f32.
                let magnitude = man as f32 * (1.0 / 16_777_216.0);
                sign | magnitude.to_bits()
            }
        }
        0x1F => sign | 0x7F80_0000 | (man << 13), // ±inf / NaN
        _ => sign | ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}
