//! A slotted record layout for B+tree leaf pages.
//!
//! Records are `(i64 key, variable payload)` pairs. The slot directory grows
//! downward from a configurable `base` offset (the B+tree keeps its node
//! header above it) and payloads grow upward from the end of the page, the
//! classic slotted-page arrangement. Slots stay sorted by key so lookups are
//! the node search of `crate::search`; deletes leave payload garbage that
//! is compacted away when space is actually needed.
//!
//! Two views share the layout logic: `SlottedRef` is the read-only view
//! over `&PageBuf` whose accessors return slices tied to the *page's*
//! lifetime — this is what lets `BTree::get` hand back a payload borrowed
//! straight from the buffer pool with zero copies. [`Slotted`] is the
//! mutable view (insert/remove/update/split/compact) and delegates all of
//! its reads to an internal `SlottedRef`.

use std::ops::Range;

use cb_store::{PageBuf, PAGE_SIZE};

use crate::search::search;

/// Largest payload a record may carry. Keeps worst-case fan-out sane.
pub(crate) const MAX_PAYLOAD: usize = 1024;

const SLOT_BYTES: usize = 12; // key: i64, off: u16, len: u16
const HDR_NSLOTS: usize = 0;
const HDR_FREE_PTR: usize = 2;
const HDR_GARBAGE: usize = 4;
const HDR_BYTES: usize = 6;

/// A read-only view of the slotted region of a page, rooted at byte offset
/// `base`. Payload slices borrow from the page itself (`&'a [u8]`), not
/// from the view, so they outlive the view and can be returned up the read
/// path without copying.
#[derive(Clone, Copy)]
pub(crate) struct SlottedRef<'a> {
    page: &'a PageBuf,
    base: usize,
}

/// A mutable view of the slotted region of a page, rooted at `base`.
pub struct Slotted<'a> {
    page: &'a mut PageBuf,
    base: usize,
}

/// Returned when a record cannot fit even after compaction; the caller
/// (B+tree) must split the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageFull;

impl<'a> SlottedRef<'a> {
    /// View an already-initialized slotted region read-only.
    pub(crate) fn new(page: &'a PageBuf, base: usize) -> Self {
        SlottedRef { page, base }
    }

    fn free_ptr(&self) -> usize {
        self.page.get_u16(self.base + HDR_FREE_PTR) as usize
    }

    fn garbage(&self) -> usize {
        self.page.get_u16(self.base + HDR_GARBAGE) as usize
    }

    fn slot_off(&self, idx: usize) -> usize {
        self.base + HDR_BYTES + idx * SLOT_BYTES
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.page.get_u16(self.base + HDR_NSLOTS) as usize
    }

    /// Key of the record at `idx`.
    pub(crate) fn key_at(&self, idx: usize) -> i64 {
        debug_assert!(idx < self.len());
        self.page.get_i64(self.slot_off(idx))
    }

    /// Payload of the record at `idx`, borrowed from the page.
    pub(crate) fn payload_at(&self, idx: usize) -> &'a [u8] {
        debug_assert!(idx < self.len());
        let off = self.page.get_u16(self.slot_off(idx) + 8) as usize;
        let len = self.page.get_u16(self.slot_off(idx) + 10) as usize;
        self.page.slice(off, len)
    }

    /// `Ok(idx)` if `key` exists, `Err(insert_pos)` otherwise.
    pub(crate) fn find(&self, key: i64) -> Result<usize, usize> {
        search(
            self.page.as_bytes(),
            self.base + HDR_BYTES,
            SLOT_BYTES,
            self.len(),
            key,
        )
    }

    /// Visit `(key, payload)` for records `slots` in slot order, stopping
    /// early when `f` returns `false`; returns `false` on early stop. Walks
    /// the slot directory as one contiguous byte slice — the scan path's
    /// hot loop, measurably faster than indexed `key_at` / `payload_at`
    /// calls per record.
    pub(crate) fn for_each_in(
        &self,
        slots: Range<usize>,
        mut f: impl FnMut(i64, &'a [u8]) -> bool,
    ) -> bool {
        debug_assert!(slots.end <= self.len());
        let bytes = self.page.as_bytes();
        let dir_start = self.slot_off(slots.start);
        let dir_end = self.slot_off(slots.end);
        for slot in bytes[dir_start..dir_end].chunks_exact(SLOT_BYTES) {
            let key = i64::from_le_bytes(slot[..8].try_into().expect("8-byte key"));
            let off = u16::from_le_bytes(slot[8..10].try_into().expect("2-byte off")) as usize;
            let len = u16::from_le_bytes(slot[10..12].try_into().expect("2-byte len")) as usize;
            if !f(key, &bytes[off..off + len]) {
                return false;
            }
        }
        true
    }

    /// Contiguous free bytes between the slot directory and the payload heap.
    pub(crate) fn contiguous_free(&self) -> usize {
        let dir_end = self.base + HDR_BYTES + self.len() * SLOT_BYTES;
        self.free_ptr().saturating_sub(dir_end)
    }

    /// `(offset, length)` of the payload of record `idx`.
    fn slot_payload(&self, idx: usize) -> (usize, usize) {
        let s = self.slot_off(idx);
        (
            self.page.get_u16(s + 8) as usize,
            self.page.get_u16(s + 10) as usize,
        )
    }

    /// The byte range holding the payloads of records `mid..len`, if each
    /// of them ends exactly where the one before it begins.
    fn upper_block(&self, mid: usize) -> Option<Range<usize>> {
        let (top_off, top_len) = self.slot_payload(mid);
        let mut bottom = top_off;
        for i in mid + 1..self.len() {
            let (off, len) = self.slot_payload(i);
            if off + len != bottom {
                return None;
            }
            bottom = off;
        }
        Some(bottom..top_off + top_len)
    }

    /// Free bytes recoverable by compaction.
    pub(crate) fn total_free(&self) -> usize {
        self.contiguous_free() + self.garbage()
    }
}

impl<'a> Slotted<'a> {
    /// View an already-initialized slotted region.
    pub(crate) fn new(page: &'a mut PageBuf, base: usize) -> Self {
        Slotted { page, base }
    }

    /// Initialize an empty slotted region at `base`.
    pub fn init(page: &'a mut PageBuf, base: usize) -> Self {
        let mut s = Slotted { page, base };
        s.set_nslots(0);
        s.set_free_ptr(PAGE_SIZE as u16);
        s.set_garbage(0);
        s
    }

    /// The read-only view of this region (reads share one implementation).
    pub(crate) fn as_read(&self) -> SlottedRef<'_> {
        SlottedRef {
            page: self.page,
            base: self.base,
        }
    }

    fn set_nslots(&mut self, n: usize) {
        self.page.put_u16(self.base + HDR_NSLOTS, n as u16);
    }

    fn free_ptr(&self) -> usize {
        self.as_read().free_ptr()
    }

    fn set_free_ptr(&mut self, p: u16) {
        self.page.put_u16(self.base + HDR_FREE_PTR, p);
    }

    fn garbage(&self) -> usize {
        self.as_read().garbage()
    }

    fn set_garbage(&mut self, g: usize) {
        self.page.put_u16(self.base + HDR_GARBAGE, g as u16);
    }

    fn slot_off(&self, idx: usize) -> usize {
        self.base + HDR_BYTES + idx * SLOT_BYTES
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.as_read().len()
    }

    /// True if no records are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key of the record at `idx`.
    pub fn key_at(&self, idx: usize) -> i64 {
        self.as_read().key_at(idx)
    }

    /// Payload of the record at `idx`.
    pub fn payload_at(&self, idx: usize) -> &[u8] {
        self.as_read().payload_at(idx)
    }

    /// `Ok(idx)` if `key` exists, `Err(insert_pos)` otherwise.
    pub fn find(&self, key: i64) -> Result<usize, usize> {
        self.as_read().find(key)
    }

    /// Contiguous free bytes between the slot directory and the payload heap.
    pub fn contiguous_free(&self) -> usize {
        self.as_read().contiguous_free()
    }

    /// Free bytes recoverable by compaction.
    pub fn total_free(&self) -> usize {
        self.as_read().total_free()
    }

    /// Insert a record. `Err(PageFull)` if it cannot fit even after
    /// compaction. Panics if `key` already exists (callers check first) or
    /// the payload exceeds `MAX_PAYLOAD`.
    pub fn insert(&mut self, key: i64, payload: &[u8]) -> Result<(), PageFull> {
        match self.find(key) {
            Ok(_) => panic!("duplicate key {key} in slotted insert"),
            Err(pos) => self.insert_at(pos, key, payload),
        }
    }

    /// Append a record whose key is above every key present: the bytes
    /// [`insert`](Self::insert) writes for such a key, without its search.
    /// Panics if `key` is not above the last key (slots must stay sorted).
    pub(crate) fn append(&mut self, key: i64, payload: &[u8]) -> Result<(), PageFull> {
        let n = self.len();
        assert!(
            n == 0 || self.key_at(n - 1) < key,
            "append of key {key} at or below the last key"
        );
        self.insert_at(n, key, payload)
    }

    /// Insert a record at slot `pos`, which must be where `key` sorts (the
    /// `Err` position a [`find`](Self::find) of it returned, or `len()`
    /// for a key above every key present).
    pub(crate) fn insert_at(
        &mut self,
        pos: usize,
        key: i64,
        payload: &[u8],
    ) -> Result<(), PageFull> {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too large");
        let need = SLOT_BYTES + payload.len();
        if self.total_free() < need {
            return Err(PageFull);
        }
        if self.contiguous_free() < need {
            self.compact();
            debug_assert!(self.contiguous_free() >= need);
        }
        // Claim payload space.
        let off = self.free_ptr() - payload.len();
        self.page.put_slice(off, payload);
        self.set_free_ptr(off as u16);
        // Shift slots [pos..) right by one (nothing to shift for an append).
        let n = self.len();
        let src = self.slot_off(pos);
        if pos < n {
            let bytes = self.page.as_bytes_mut();
            bytes.copy_within(src..src + (n - pos) * SLOT_BYTES, src + SLOT_BYTES);
        }
        // Write the new slot.
        self.page.put_i64(src, key);
        self.page.put_u16(src + 8, off as u16);
        self.page.put_u16(src + 10, payload.len() as u16);
        self.set_nslots(n + 1);
        Ok(())
    }

    /// Remove the record at `idx`.
    pub fn remove(&mut self, idx: usize) {
        let n = self.len();
        debug_assert!(idx < n);
        let len = self.page.get_u16(self.slot_off(idx) + 10) as usize;
        self.set_garbage(self.garbage() + len);
        let dst = self.slot_off(idx);
        let bytes = self.page.as_bytes_mut();
        bytes.copy_within(
            dst + SLOT_BYTES..self.base + HDR_BYTES + n * SLOT_BYTES,
            dst,
        );
        self.set_nslots(n - 1);
    }

    /// Replace the payload at `idx`, in place when the size is unchanged.
    pub fn update(&mut self, idx: usize, payload: &[u8]) -> Result<(), PageFull> {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too large");
        let slot = self.slot_off(idx);
        let old_len = self.page.get_u16(slot + 10) as usize;
        if payload.len() == old_len {
            let off = self.page.get_u16(slot + 8) as usize;
            self.page.put_slice(off, payload);
            return Ok(());
        }
        let key = self.key_at(idx);
        // Budget check before destructive removal: after removing, we free
        // SLOT_BYTES + old_len; the insert needs SLOT_BYTES + new payload.
        if self.total_free() + SLOT_BYTES + old_len < SLOT_BYTES + payload.len() {
            return Err(PageFull);
        }
        self.remove(idx);
        self.insert(key, payload)
            .expect("space was verified before removal");
        Ok(())
    }

    /// Move the upper half of the records into `dst` (an initialized, empty
    /// slotted region). Returns the first key now living in `dst`.
    ///
    /// Payloads are copied page-to-page directly; nothing is staged in a
    /// heap buffer. When the upper half's payloads lie back to back in slot
    /// order — always so on a page filled by [`append`](Self::append) — they
    /// move as one payload block plus one slot-directory block; otherwise
    /// record by record. Both write the same bytes.
    pub(crate) fn split_into(&mut self, dst: &mut Slotted<'_>) -> i64 {
        self.split(dst, true)
    }

    /// [`split_into`](Self::split_into); `allow_block: false` forces the
    /// record-by-record path, the reference the block path is tested
    /// against.
    fn split(&mut self, dst: &mut Slotted<'_>, allow_block: bool) -> i64 {
        let n = self.len();
        assert!(n >= 2, "cannot split a page with < 2 records");
        assert!(dst.is_empty(), "split destination must be empty");
        let mid = n / 2;
        // Inserting record by record never compacts `dst` when everything
        // fits its contiguous space; only then do the two paths agree.
        let dead = match self.as_read().upper_block(mid) {
            Some(block)
                if allow_block && dst.contiguous_free() >= block.len() + (n - mid) * SLOT_BYTES =>
            {
                self.move_block(mid, block, dst)
            }
            _ => self.move_records(mid, dst),
        };
        // Truncate: account dead payload bytes, then drop the slots.
        self.set_garbage(self.garbage() + dead);
        self.set_nslots(mid);
        dst.key_at(0)
    }

    /// Records `mid..len` into `dst`, one insert each; returns their
    /// payload bytes.
    fn move_records(&self, mid: usize, dst: &mut Slotted<'_>) -> usize {
        let mut moved = 0;
        for i in mid..self.len() {
            let payload = self.as_read().payload_at(i);
            moved += payload.len();
            dst.insert(self.key_at(i), payload)
                .expect("fresh page cannot be full");
        }
        moved
    }

    /// Records `mid..len`, whose payloads fill `block`, into `dst` as two
    /// copies — the payload block below `dst`'s free pointer, the slot
    /// directory at its head — with offsets rebased; returns the payload
    /// bytes. The result is what [`move_records`](Self::move_records)
    /// writes: inserting ascending keys stacks their payloads downward in
    /// slot order, which is the order `block` already holds them in.
    fn move_block(&self, mid: usize, block: Range<usize>, dst: &mut Slotted<'_>) -> usize {
        let n = self.len() - mid;
        let top = dst.free_ptr();
        let bottom = top - block.len();
        let src = self.page.as_bytes();
        let dst_dir = dst.slot_off(0);
        let bytes = dst.page.as_bytes_mut();
        bytes[bottom..top].copy_from_slice(&src[block.clone()]);
        bytes[dst_dir..dst_dir + n * SLOT_BYTES]
            .copy_from_slice(&src[self.slot_off(mid)..self.slot_off(mid + n)]);
        for j in 0..n {
            let off = dst.slot_off(j) + 8;
            let old = dst.page.get_u16(off) as usize;
            dst.page.put_u16(off, (old + top - block.end) as u16);
        }
        dst.set_free_ptr(bottom as u16);
        dst.set_nslots(n);
        block.len()
    }

    /// Rewrite payloads contiguously, reclaiming garbage — in place.
    ///
    /// Only `(slot, old offset, length)` triples are collected; each payload
    /// is then moved with a single `copy_within`. Processing slots in
    /// descending old-offset order guarantees every new offset is `>=` its
    /// old offset (the records above it shrink the gap by at most the bytes
    /// they occupy), so the possibly-overlapping copy is memmove-safe and
    /// never clobbers a payload that has not moved yet.
    pub fn compact(&mut self) {
        let n = self.len();
        let mut slots: Vec<(usize, usize, usize)> = (0..n)
            .map(|i| {
                let s = self.slot_off(i);
                (
                    i,
                    self.page.get_u16(s + 8) as usize,
                    self.page.get_u16(s + 10) as usize,
                )
            })
            .collect();
        slots.sort_unstable_by_key(|s| std::cmp::Reverse(s.1));
        let mut free = PAGE_SIZE;
        for (i, old, len) in slots {
            free -= len;
            debug_assert!(free >= old, "descending-offset order keeps dst above src");
            self.page.as_bytes_mut().copy_within(old..old + len, free);
            self.page.put_u16(self.slot_off(i) + 8, free as u16);
        }
        self.set_free_ptr(free as u16);
        self.set_garbage(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fresh() -> PageBuf {
        PageBuf::zeroed()
    }

    #[test]
    fn insert_find_get() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        s.insert(10, b"ten").unwrap();
        s.insert(5, b"five").unwrap();
        s.insert(20, b"twenty").unwrap();
        assert_eq!(s.len(), 3);
        // Sorted order maintained.
        assert_eq!(s.key_at(0), 5);
        assert_eq!(s.key_at(1), 10);
        assert_eq!(s.key_at(2), 20);
        assert_eq!(s.find(10), Ok(1));
        assert_eq!(s.find(11), Err(2));
        assert_eq!(s.payload_at(0), b"five");
    }

    #[test]
    fn read_view_matches_mutable_view() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        for k in 0..50 {
            s.insert(k, format!("payload-{k}").as_bytes()).unwrap();
        }
        let r = SlottedRef::new(&page, 16);
        assert_eq!(r.len(), 50);
        for k in 0..50usize {
            assert_eq!(r.key_at(k), k as i64);
            assert_eq!(r.payload_at(k), format!("payload-{k}").as_bytes());
            assert_eq!(r.find(k as i64), Ok(k));
        }
        assert_eq!(r.find(50), Err(50));
        // The borrowed payload outlives the view itself.
        let p = { r.payload_at(7) };
        assert_eq!(p, b"payload-7");
        // Free-space accounting agrees between the two views.
        let s2 = Slotted::new(&mut page, 16);
        assert_eq!(
            s2.contiguous_free(),
            SlottedRef::new(s2.page, 16).contiguous_free()
        );
        assert_eq!(s2.total_free(), SlottedRef::new(s2.page, 16).total_free());
    }

    #[test]
    fn remove_shifts_slots() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        for k in 0..5 {
            s.insert(k, &[k as u8; 4]).unwrap();
        }
        s.remove(2);
        assert_eq!(s.len(), 4);
        assert_eq!(s.find(2), Err(2));
        assert_eq!(s.key_at(2), 3);
        assert_eq!(s.payload_at(2), &[3u8; 4]);
    }

    #[test]
    fn update_in_place_and_resize() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        s.insert(1, b"abcd").unwrap();
        s.update(0, b"wxyz").unwrap();
        assert_eq!(s.payload_at(0), b"wxyz");
        // Different size forces relocation but keeps the key.
        s.update(0, b"longer-payload").unwrap();
        assert_eq!(s.payload_at(0), b"longer-payload");
        assert_eq!(s.key_at(0), 1);
    }

    #[test]
    fn fills_up_then_reports_full() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        let payload = [0u8; 100];
        let mut inserted = 0i64;
        while s.insert(inserted, &payload).is_ok() {
            inserted += 1;
        }
        // ~ (8192-22) / 112 ≈ 72 records.
        assert!(inserted > 60, "inserted = {inserted}");
        assert_eq!(s.len() as i64, inserted);
        // All still readable.
        for k in 0..inserted {
            assert_eq!(s.find(k), Ok(k as usize));
        }
    }

    #[test]
    fn compaction_reclaims_garbage() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        let payload = [7u8; 200];
        let mut n = 0i64;
        while s.insert(n, &payload).is_ok() {
            n += 1;
        }
        // Delete every other record, then inserts must succeed again via
        // compaction.
        for i in (0..n as usize).rev().step_by(2) {
            s.remove(i);
        }
        let before = s.len();
        let mut added = 0;
        while s.insert(n + added, &payload).is_ok() {
            added += 1;
        }
        assert!(added as usize >= before / 2, "added = {added}");
        // Verify integrity post-compaction.
        for i in 0..s.len() {
            assert_eq!(s.payload_at(i), &payload);
        }
    }

    #[test]
    fn compaction_preserves_varied_payloads() {
        // Distinct, variable-length payloads catch any compaction bug that
        // the all-identical-payload test above would miss (e.g. clobbering
        // a not-yet-moved record or mis-writing an offset).
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        let body = |k: i64| -> Vec<u8> {
            let mut v = format!("rec-{k}-").into_bytes();
            v.extend(std::iter::repeat_n(k as u8, (k as usize * 7) % 90));
            v
        };
        let mut n = 0i64;
        while s.insert(n, &body(n)).is_ok() {
            n += 1;
        }
        for i in (1..n as usize).rev().step_by(3) {
            s.remove(i);
        }
        s.compact();
        for i in 0..s.len() {
            let k = s.key_at(i);
            assert_eq!(s.payload_at(i), body(k).as_slice(), "key {k}");
        }
        assert_eq!(s.total_free(), s.contiguous_free());
    }

    #[test]
    fn split_moves_upper_half() {
        let mut left_page = fresh();
        let mut right_page = fresh();
        let mut left = Slotted::init(&mut left_page, 16);
        for k in 0..10 {
            left.insert(k, format!("v{k}").as_bytes()).unwrap();
        }
        let mut right = Slotted::init(&mut right_page, 16);
        let sep = left.split_into(&mut right);
        assert_eq!(sep, 5);
        assert_eq!(left.len(), 5);
        assert_eq!(right.len(), 5);
        assert_eq!(left.key_at(4), 4);
        assert_eq!(right.key_at(0), 5);
        assert_eq!(right.payload_at(0), b"v5");
    }

    /// A payload of `len` bytes that differs per key.
    fn body(key: i64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (key as usize * 31 + i) as u8).collect()
    }

    /// Fill a page by appending ascending keys with these payload lengths
    /// until one does not fit; returns the keys placed.
    fn fill_by_appends(page: &mut PageBuf, lens: &[usize]) -> usize {
        let mut s = Slotted::init(page, 16);
        for (k, &len) in lens.iter().enumerate() {
            if s.append(k as i64 * 3, &body(k as i64, len)).is_err() {
                return k;
            }
        }
        lens.len()
    }

    /// Split `src` both ways, on copies; returns the two `(left, right)`
    /// page pairs and the separators.
    fn split_both_ways(src: &PageBuf) -> [(PageBuf, PageBuf, i64); 2] {
        [true, false].map(|block| {
            let mut left = src.clone();
            let mut right = fresh();
            let mut r = Slotted::init(&mut right, 16);
            let sep = Slotted::new(&mut left, 16).split(&mut r, block);
            (left, right, sep)
        })
    }

    fn same_bytes(a: &PageBuf, b: &PageBuf) -> bool {
        a.as_bytes()[..] == b.as_bytes()[..]
    }

    proptest! {
        /// `append` of a key above every key present writes what `insert`
        /// writes, byte for byte — including the page-full verdict and a
        /// compaction forced by the garbage deletes leave behind.
        #[test]
        fn append_writes_the_bytes_insert_writes(
            lens in prop::collection::vec(0usize..300, 1..120),
            remove_every in 2usize..12,
        ) {
            let (mut a, mut b) = (fresh(), fresh());
            let mut sa = Slotted::init(&mut a, 16);
            let mut sb = Slotted::init(&mut b, 16);
            for (k, &len) in lens.iter().enumerate() {
                let (key, payload) = (k as i64 * 2 + 1, body(k as i64, len));
                prop_assert_eq!(sa.insert(key, &payload), sb.append(key, &payload));
                if k % remove_every == 0 && sa.len() > 1 {
                    let victim = k * 7 % sa.len();
                    sa.remove(victim);
                    sb.remove(victim);
                }
            }
            prop_assert!(same_bytes(&a, &b));
        }

        /// On an append-built page the block split and the per-record split
        /// write identical bytes into both halves.
        #[test]
        fn block_split_equals_record_split(lens in prop::collection::vec(0usize..MAX_PAYLOAD, 2..200)) {
            let mut page = fresh();
            if fill_by_appends(&mut page, &lens) >= 2 {
                let s = SlottedRef::new(&page, 16);
                prop_assert!(s.upper_block(s.len() / 2).is_some());
                let [(l1, r1, s1), (l2, r2, s2)] = split_both_ways(&page);
                prop_assert!(same_bytes(&l1, &l2) && same_bytes(&r1, &r2));
                prop_assert_eq!(s1, s2);
            }
        }

        /// After deletes, resizing updates and compaction the payloads are
        /// no longer stacked in slot order; the split still writes what
        /// the per-record split does and keeps every record.
        #[test]
        fn scrambled_page_split_equals_record_split(
            lens in prop::collection::vec(1usize..200, 8..80),
            edits in prop::collection::vec((0usize..80, 0usize..250, 0u8..3), 1..20),
        ) {
            let mut page = fresh();
            let placed = fill_by_appends(&mut page, &lens);
            let mut s = Slotted::new(&mut page, 16);
            for (i, len, op) in edits {
                if s.len() <= 2 || i >= s.len() {
                    continue;
                }
                match op {
                    0 => s.remove(i),
                    1 => {
                        let key = s.key_at(i);
                        let _ = s.update(i, &body(key + 1, len));
                    }
                    _ => s.compact(),
                }
            }
            prop_assert!(placed >= 2);
            let want: Vec<(i64, Vec<u8>)> =
                (0..s.len()).map(|i| (s.key_at(i), s.payload_at(i).to_vec())).collect();
            let [(l1, r1, s1), (l2, r2, s2)] = split_both_ways(&page);
            prop_assert!(same_bytes(&l1, &l2) && same_bytes(&r1, &r2));
            prop_assert_eq!(s1, s2);
            let (l, r) = (SlottedRef::new(&l1, 16), SlottedRef::new(&r1, 16));
            let got: Vec<(i64, Vec<u8>)> = (0..l.len())
                .map(|i| (l.key_at(i), l.payload_at(i).to_vec()))
                .chain((0..r.len()).map(|i| (r.key_at(i), r.payload_at(i).to_vec())))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        /// The leaf form of the node search, on a real slot directory
        /// filled by appends up to a full page: `find` answers what a
        /// binary search over the same keys does.
        #[test]
        fn leaf_find_equals_binary_search(keys in crate::search::tests::any_key_set()) {
            let mut page = fresh();
            let mut s = Slotted::init(&mut page, 16);
            let placed: Vec<i64> = keys
                .iter()
                .copied()
                .take_while(|&k| s.append(k, &[]).is_ok())
                .collect();
            let s = SlottedRef::new(&page, 16);
            for key in crate::search::tests::probes(&placed) {
                prop_assert_eq!(s.find(key), placed.binary_search(&key), "key {}", key);
            }
        }
    }

    #[test]
    fn split_falls_back_when_payloads_are_out_of_slot_order() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        for k in 0..10 {
            s.append(k, &body(k, 20)).unwrap();
        }
        // A resized record moves to the bottom of the heap: slot 7's
        // payload no longer sits between slots 6 and 8.
        s.update(7, &body(70, 33)).unwrap();
        assert!(s.as_read().upper_block(5).is_none());
        let [(l1, r1, _), (l2, r2, _)] = split_both_ways(&page);
        assert!(same_bytes(&l1, &l2) && same_bytes(&r1, &r2));
        assert_eq!(SlottedRef::new(&r1, 16).payload_at(2), body(70, 33));
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_insert_panics() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        s.insert(1, b"a").unwrap();
        s.insert(1, b"b").unwrap();
    }

    #[test]
    fn update_full_page_to_larger_payload_errors() {
        let mut page = fresh();
        let mut s = Slotted::init(&mut page, 16);
        let payload = [0u8; 100];
        let mut n = 0i64;
        while s.insert(n, &payload).is_ok() {
            n += 1;
        }
        // Growing a record on a packed page must fail cleanly, not corrupt.
        let err = s.update(0, &[0u8; 900]);
        assert_eq!(err, Err(PageFull));
        assert_eq!(s.len() as i64, n);
        assert_eq!(s.payload_at(0), &payload);
    }
}
