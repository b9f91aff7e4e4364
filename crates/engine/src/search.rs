//! The one search over a node's sorted keys, for leaves and internal nodes.
//!
//! Both node layouts keep their keys as little-endian `i64`s at a fixed
//! stride: a leaf's slot directory (12-byte slots, [`crate::slotted`]) and
//! an internal node's separator array (16-byte entries, [`crate::btree`]).
//! Keys are unique and ascending within a node. The tables key rows by
//! dense integer ids, so a node's keys are close to evenly spaced: the
//! first probe is the slot interpolated from the node's own first and last
//! keys, which usually lands on the answer or next to it. From there the
//! search gallops outward (1, 2, 4, … slots) until a key brackets the
//! target, then binary-searches the bracket. A lookup reads the two end
//! keys and a few neighbours instead of the ten scattered keys a binary
//! search over a full 8 KiB node reads — the host cache misses that
//! dominated the point path (DESIGN §11.8).
//!
//! The answer is the binary search's: `Ok(i)` when key `i` equals the
//! target, else `Err(p)` with `p` the number of keys below it. Keys may be
//! anywhere in `i64` (the tests use `i64::MIN` and `i64::MAX`); the
//! interpolation works on unsigned distances, never on `u128`.

/// Key `i` of a node whose keys start at byte `first`, `stride` apart.
#[inline(always)]
fn key_at(bytes: &[u8], first: usize, stride: usize, i: usize) -> i64 {
    let off = first + i * stride;
    i64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte key"))
}

/// Search the `n` ascending unique keys at `first`, `first + stride`, …
/// of `bytes` for `key`: `Ok(i)` if key `i` equals it, else `Err(p)` where
/// `p` keys are below it.
pub(crate) fn search(
    bytes: &[u8],
    first: usize,
    stride: usize,
    n: usize,
    key: i64,
) -> Result<usize, usize> {
    let at = |i: usize| key_at(bytes, first, stride, i);
    if n == 0 {
        return Err(0);
    }
    let lo_key = at(0);
    if key <= lo_key {
        return if key == lo_key { Ok(0) } else { Err(0) };
    }
    let last = n - 1;
    let hi_key = at(last);
    if key >= hi_key {
        return if key == hi_key { Ok(last) } else { Err(n) };
    }
    // lo_key < key < hi_key: the answer is in 1..=last, and n >= 2.
    if last == 1 {
        return Err(1);
    }
    // Distances as u64 are exact for any pair of i64s. Slot counts fit in
    // 16 bits (the node headers store them as u16), so shifting both
    // distances below 2^48 keeps the product under 2^64.
    let offset = key.wrapping_sub(lo_key) as u64;
    let span = hi_key.wrapping_sub(lo_key) as u64;
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(48);
    let guess = ((offset >> shift) * last as u64 / (span >> shift)) as usize;
    let g = guess.clamp(1, last - 1);
    // Invariant from here: at(lo - 1) < key < at(hi), 1 <= lo <= hi <= last.
    let (mut lo, mut hi);
    let probe = at(g);
    if probe == key {
        return Ok(g);
    }
    let mut step = 1;
    if probe < key {
        lo = g + 1;
        hi = last;
        while g + step < last {
            let k = at(g + step);
            if k > key {
                hi = g + step;
                break;
            }
            if k == key {
                return Ok(g + step);
            }
            lo = g + step + 1;
            step *= 2;
        }
    } else {
        lo = 1;
        hi = g;
        while step < g {
            let k = at(g - step);
            if k < key {
                lo = g - step + 1;
                break;
            }
            if k == key {
                return Ok(g - step);
            }
            hi = g - step;
            step *= 2;
        }
    }
    // Binary search of the bracket.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match at(mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A sorted unique key set of one of six shapes, built from `seed`:
    /// a dense run, clustered runs with gaps between them, exponential
    /// gaps, uniform draws over all of `i64`, a set pinned to both `i64`
    /// extremes, and a dense run with a few far outliers. `n` is the size
    /// asked for (shapes may come out a little smaller after dedup).
    pub(crate) fn key_set(shape: u8, seed: u64, n: usize) -> Vec<i64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let start = next() as i64;
        let mut keys: Vec<i64> = match shape % 6 {
            0 => (0..n as i64).map(|i| start.saturating_add(i)).collect(),
            1 => {
                let mut k = (next() % 1_000_000) as i64;
                (0..n)
                    .map(|_| {
                        k += if next() % 8 == 0 {
                            1 + (next() % 5_000) as i64
                        } else {
                            1
                        };
                        k
                    })
                    .collect()
            }
            2 => {
                let mut k = i64::MIN / 2;
                (0..n)
                    .map(|_| {
                        k = k.saturating_add(1i64 << (next() % 60));
                        k
                    })
                    .collect()
            }
            3 => (0..n).map(|_| next() as i64).collect(),
            4 => {
                let mut v: Vec<i64> = (0..n.saturating_sub(2)).map(|_| next() as i64).collect();
                v.extend([i64::MIN, i64::MAX]);
                v
            }
            _ => {
                let mut v: Vec<i64> = (0..n as i64).map(|i| 1_000 + i).collect();
                v.extend((0..3).map(|_| next() as i64));
                v
            }
        };
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Every key, each key's neighbours, the `i64` extremes and a few
    /// values between keys: the targets worth asking a node for.
    pub(crate) fn probes(keys: &[i64]) -> Vec<i64> {
        let mut p = vec![i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX];
        for w in keys.windows(2) {
            p.push(((w[0] as i128 + w[1] as i128) / 2) as i64);
        }
        for &k in keys {
            p.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        p
    }

    /// A key set of one of the shapes at a size from 0 to past a full
    /// leaf (680 slots with empty payloads), small sizes over-weighted.
    pub(crate) fn any_key_set() -> impl Strategy<Value = Vec<i64>> {
        prop_oneof![
            (0..6u8, any::<u64>(), 0..4usize),
            (0..6u8, any::<u64>(), 0..40usize),
            (0..6u8, any::<u64>(), 0..700usize),
        ]
        .prop_map(|(shape, seed, n)| key_set(shape, seed, n))
    }

    /// Lay `keys` out at `first`, `stride` apart, in a zeroed page image.
    fn laid_out(keys: &[i64], first: usize, stride: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; first + keys.len() * stride + 8];
        for (i, k) in keys.iter().enumerate() {
            let off = first + i * stride;
            bytes[off..off + 8].copy_from_slice(&k.to_le_bytes());
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any stride and start offset: the search answers as a binary
        /// search over the same keys does.
        #[test]
        fn search_equals_binary_search(keys in any_key_set(), first in 0..24usize, stride in 8..20usize) {
            let bytes = laid_out(&keys, first, stride);
            for key in probes(&keys) {
                prop_assert_eq!(
                    search(&bytes, first, stride, keys.len(), key),
                    keys.binary_search(&key),
                    "key {} over {:?}", key, keys
                );
            }
        }
    }

    #[test]
    fn edge_sizes_and_extremes() {
        for keys in [
            vec![],
            vec![5],
            vec![i64::MIN],
            vec![i64::MAX],
            vec![i64::MIN, i64::MAX],
            vec![-1, 1],
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX],
        ] {
            let bytes = laid_out(&keys, 16, 16);
            for key in probes(&keys) {
                assert_eq!(
                    search(&bytes, 16, 16, keys.len(), key),
                    keys.binary_search(&key),
                    "key {key} over {keys:?}"
                );
            }
        }
    }
}
