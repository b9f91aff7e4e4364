//! Raw fixed-size pages and the canonical page store.
//!
//! Page *content* lives once in a [`PageStore`] — the durable truth of the
//! database. Per-node buffer pools (in `cb-engine`) decide whether an access
//! hits local cache or pays the storage service's simulated I/O cost; they
//! never duplicate content, which keeps a multi-node cluster consistent by
//! construction while still modelling cache behaviour faithfully.

use std::fmt;

/// Size of every page in bytes (matches PostgreSQL's default).
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within the page store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel for "no page" (e.g. a leaf with no right sibling).
    pub const INVALID: PageId = PageId(u64::MAX);

    /// True unless this is the sentinel.
    pub fn is_valid(self) -> bool {
        self != PageId::INVALID
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "P{}", self.0)
        } else {
            write!(f, "P<invalid>")
        }
    }
}

/// A fixed-size page buffer with little-endian scalar accessors.
#[derive(Clone)]
pub struct PageBuf {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for PageBuf {
    fn default() -> Self {
        PageBuf {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }
}

impl PageBuf {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        PageBuf::default()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Mutable raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Read a `u16` at byte offset `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap())
    }

    /// Write a `u16` at byte offset `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u64` at byte offset `off`.
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Write a `u64` at byte offset `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an `i64` at byte offset `off`.
    pub fn get_i64(&self, off: usize) -> i64 {
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Write an `i64` at byte offset `off`.
    pub fn put_i64(&mut self, off: usize, v: i64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `src` into the page at `off`.
    pub fn put_slice(&mut self, off: usize, src: &[u8]) {
        self.bytes[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrow `len` bytes at `off`.
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }
}

/// The canonical, durable home of all pages.
///
/// A dense arena: ids are handed out in order and never reused, so page `i`
/// lives at index `i` and a lookup is a bounds check, not a hash probe. A
/// freed page leaves a `None` hole. Each page stays its own boxed 8 KB
/// allocation: one contiguous slab was measured slower to build, because
/// dropping a whole dataset returns it to the kernel at once and the next
/// load faults every page back in.
#[derive(Clone, Default)]
pub struct PageStore {
    pages: Vec<Option<PageBuf>>,
    live: usize,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Allocate a fresh zeroed page.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(Some(PageBuf::zeroed()));
        self.live += 1;
        id
    }

    /// Drop a page. Panics if the page does not exist (double free).
    pub fn free(&mut self, id: PageId) {
        let removed = self.pages.get_mut(id.0 as usize).and_then(Option::take);
        assert!(removed.is_some(), "free of unknown page {id:?}");
        self.live -= 1;
    }

    /// Borrow a page. Panics on unknown id — an engine bug, not user error.
    pub fn read(&self, id: PageId) -> &PageBuf {
        self.pages
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("read of unknown page {id:?}"))
    }

    /// Mutably borrow a page.
    pub fn write(&mut self, id: PageId) -> &mut PageBuf {
        self.pages
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("write of unknown page {id:?}"))
    }

    /// Mutably borrow two distinct pages at once (a split moving records
    /// from one into the other). Panics if `a == b` or either is unknown.
    pub fn write_pair(&mut self, a: PageId, b: PageId) -> (&mut PageBuf, &mut PageBuf) {
        assert_ne!(a, b, "write_pair of one page {a:?}");
        for id in [a, b] {
            assert!(self.contains(id), "write of unknown page {id:?}");
        }
        let [pa, pb] = self
            .pages
            .get_disjoint_mut([a.0 as usize, b.0 as usize])
            .expect("two distinct live ids");
        (
            pa.as_mut().expect("live page"),
            pb.as_mut().expect("live page"),
        )
    }

    /// True if `id` is live.
    pub fn contains(&self, id: PageId) -> bool {
        self.pages.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of live pages.
    pub fn live_pages(&self) -> usize {
        self.live
    }

    /// Total bytes of live data.
    pub fn size_bytes(&self) -> u64 {
        self.live as u64 * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut p = PageBuf::zeroed();
        p.put_u16(0, 0xBEEF);
        p.put_u64(100, u64::MAX - 7);
        p.put_i64(200, -12345);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u64(100), u64::MAX - 7);
        assert_eq!(p.get_i64(200), -12345);
    }

    #[test]
    fn slice_round_trip() {
        let mut p = PageBuf::zeroed();
        p.put_slice(50, b"cloudybench");
        assert_eq!(p.slice(50, 11), b"cloudybench");
    }

    #[test]
    fn allocate_read_write_free() {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        assert_ne!(a, b);
        s.write(a).put_u64(0, 42);
        assert_eq!(s.read(a).get_u64(0), 42);
        assert_eq!(s.read(b).get_u64(0), 0);
        assert_eq!(s.live_pages(), 2);
        s.free(a);
        assert!(!s.contains(a));
        assert_eq!(s.live_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "free of unknown page")]
    fn double_free_panics() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.free(a);
        s.free(a);
    }

    #[test]
    #[should_panic(expected = "read of unknown page P0")]
    fn read_of_freed_page_panics() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.allocate();
        s.free(a);
        s.read(a);
    }

    #[test]
    #[should_panic(expected = "write of unknown page P0")]
    fn write_of_freed_page_panics() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.free(a);
        s.write(a);
    }

    #[test]
    fn never_allocated_ids_are_unknown() {
        use std::panic::catch_unwind;
        let one_page = || {
            let mut s = PageStore::new();
            s.allocate();
            s
        };
        for id in [PageId(1), PageId(1 << 40), PageId::INVALID] {
            assert!(!one_page().contains(id));
            let s = one_page();
            assert!(
                catch_unwind(|| s.read(id).get_u64(0)).is_err(),
                "read {id:?}"
            );
            let mut s = one_page();
            assert!(
                catch_unwind(move || s.write(id).get_u64(0)).is_err(),
                "write {id:?}"
            );
            let mut s = one_page();
            assert!(catch_unwind(move || s.free(id)).is_err(), "free {id:?}");
        }
    }

    #[test]
    fn write_pair_borrows_two_disjoint_pages() {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        let c = s.allocate();
        for (x, y) in [(a, c), (c, a), (b, a)] {
            let (px, py) = s.write_pair(x, y);
            px.put_u64(0, x.0 + 100);
            py.put_u64(8, y.0 + 200);
            assert_eq!(s.read(x).get_u64(0), x.0 + 100);
            assert_eq!(s.read(y).get_u64(8), y.0 + 200);
        }
        assert_eq!(s.read(b).get_u64(8), 0, "b was only ever the first page");
        assert_eq!(s.live_pages(), 3);
    }

    #[test]
    #[should_panic(expected = "write_pair of one page")]
    fn write_pair_of_one_page_panics() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write_pair(a, a);
    }

    #[test]
    #[should_panic(expected = "write of unknown page P1")]
    fn write_pair_of_freed_page_panics() {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        s.free(b);
        s.write_pair(a, b);
    }

    #[test]
    fn size_accounting() {
        let mut s = PageStore::new();
        for _ in 0..10 {
            s.allocate();
        }
        assert_eq!(s.size_bytes(), 10 * PAGE_SIZE as u64);
    }

    #[test]
    fn invalid_page_id_sentinel() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
    }
}
