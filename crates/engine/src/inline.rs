//! A vector whose first `N` elements live in the value itself.
//!
//! A point transaction writes one or two rows and a B+tree descent passes
//! two or three internal pages, so the write set, the undo list and the
//! descent path almost never outgrow a handful of slots. Keeping those
//! slots inline makes the common case free of the allocator; the rare long
//! transaction (a bulk insert, a TPC-C new-order) spills to a `Vec` once.

use std::ops::Deref;

/// Up to `N` elements inline; element `N + 1` moves everything to the heap.
#[derive(Clone, Debug)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// Holds *all* elements once `len > N`, empty before that.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Append `v`.
    pub(crate) fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            if self.len == N {
                self.spill.reserve(2 * N);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_n_then_spills_in_order() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..3 {
            v.push(i);
        }
        assert_eq!(&v[..], [0, 1, 2]);
        assert_eq!(v.spill.capacity(), 0, "three elements fit inline");
        for i in 3..10 {
            v.push(i);
        }
        assert_eq!(&v[..], (0..10).collect::<Vec<_>>());
        assert_eq!(v.last(), Some(&9));
    }
}
