//! Raw fixed-size pages and the canonical page store.
//!
//! Page *content* lives once in a [`PageStore`] — the durable truth of the
//! database. Per-node buffer pools (in `cb-engine`) decide whether an access
//! hits local cache or pays the storage service's simulated I/O cost; they
//! never duplicate content, which keeps a multi-node cluster consistent by
//! construction while still modelling cache behaviour faithfully.

use std::cell::Cell;
use std::fmt;
use std::ptr;

/// Size of every page in bytes (matches PostgreSQL's default).
pub const PAGE_SIZE: usize = 8192;

/// One page's bytes.
type Frame = [u8; PAGE_SIZE];

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
///
/// The accessors are `#[inline]`: without it each one compiled to a call
/// through the GOT from every other crate, several per row on the bulk
/// load's append path.
#[derive(Clone)]
pub struct PageBuf {
    bytes: Box<Frame>,
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
    #[inline]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Mutable raw bytes.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Read a `u16` at byte offset `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap())
    }

    /// Write a `u16` at byte offset `off`.
    #[inline]
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u64` at byte offset `off`.
    #[inline]
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Write a `u64` at byte offset `off`.
    #[inline]
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an `i64` at byte offset `off`.
    #[inline]
    pub fn get_i64(&self, off: usize) -> i64 {
        i64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Write an `i64` at byte offset `off`.
    #[inline]
    pub fn put_i64(&mut self, off: usize, v: i64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `src` into the page at `off`.
    #[inline]
    pub fn put_slice(&mut self, off: usize, src: &[u8]) {
        self.bytes[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrow `len` bytes at `off`.
    #[inline]
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }
}

/// The frames dropped page stores handed back on this thread, as a stack
/// linked through each spare frame's own first 8 bytes, so holding a frame
/// costs nothing beside it. The frames are plain heap memory: a store built
/// on one thread and dropped on another simply feeds the other's list.
struct SpareFrames {
    /// The top frame, or null when the list is empty.
    head: Cell<*mut Frame>,
}

impl SpareFrames {
    fn push(&self, frame: Box<Frame>) {
        let raw = Box::into_raw(frame);
        // SAFETY: `raw` is a live 8 KB allocation that only this list owns
        // from here on; its first 8 bytes become the link (alignment 1, so
        // the write is unaligned).
        unsafe { raw.cast::<*mut Frame>().write_unaligned(self.head.get()) };
        self.head.set(raw);
    }

    fn pop(&self) -> Option<Box<Frame>> {
        let raw = self.head.get();
        if raw.is_null() {
            return None;
        }
        // SAFETY: a non-null head came from `Box::into_raw` in `push` and is
        // owned by the list alone; `push` wrote the next link into its first
        // 8 bytes, and taking it off the top hands the ownership back.
        unsafe {
            self.head.set(raw.cast::<*mut Frame>().read_unaligned());
            Some(Box::from_raw(raw))
        }
    }

    fn clear(&self) {
        while self.pop().is_some() {}
    }
}

impl Drop for SpareFrames {
    fn drop(&mut self) {
        self.clear();
    }
}

thread_local! {
    static SPARE: SpareFrames = const {
        SpareFrames {
            head: Cell::new(ptr::null_mut()),
        }
    };
}

/// A spare frame, if this thread has one (none while its list is torn down).
fn spare_frame() -> Option<Box<Frame>> {
    SPARE.try_with(SpareFrames::pop).ok().flatten()
}

/// The canonical, durable home of all pages.
///
/// A dense arena: ids are handed out in order, so page `i` lives at index
/// `i` and a lookup is a bounds check, not a hash probe. Each page is its
/// own boxed 8 KB frame, and frames outlive their store: a dropped store
/// pushes every frame onto a per-thread spare list, and `allocate` and
/// `clone` on that thread take frames from it before they ask the
/// allocator. Freeing a dataset's worth of pages to the allocator lets it
/// hand the memory back to the kernel, and the next deployment then faults
/// every page in again. Loaders call [`PageStore::release_spare_frames`]
/// when they finish, so spare frames never sit beside a running workload.
#[derive(Default)]
pub struct PageStore {
    pages: Vec<PageBuf>,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        PageStore::default()
    }

    /// Allocate a fresh zeroed page.
    pub fn allocate(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(match spare_frame() {
            Some(mut bytes) => {
                bytes.fill(0);
                PageBuf { bytes }
            }
            None => PageBuf::zeroed(),
        });
        id
    }

    /// Give this thread's spare frames back to the allocator. A loader
    /// calls it once its last table is loaded: every frame the load did not
    /// take would otherwise stay out of reach of the run's own allocations.
    pub fn release_spare_frames() {
        let _ = SPARE.try_with(SpareFrames::clear);
    }

    /// Borrow a page. Panics on unknown id — an engine bug, not user error.
    #[inline]
    pub fn read(&self, id: PageId) -> &PageBuf {
        self.pages
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("read of unknown page {id:?}"))
    }

    /// Mutably borrow a page.
    #[inline]
    pub fn write(&mut self, id: PageId) -> &mut PageBuf {
        self.pages
            .get_mut(id.0 as usize)
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
            .expect("two distinct known ids");
        (pa, pb)
    }

    /// True if `id` was allocated.
    pub fn contains(&self, id: PageId) -> bool {
        (id.0 as usize) < self.pages.len()
    }

    /// Number of pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes of page data.
    pub fn size_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE as u64
    }
}

/// Copies every page, into a spare frame where this thread has one: each
/// crash of a chaos run clones the base snapshot and drops the copy once it
/// is replayed, so the next crash's copy takes the same frames.
impl Clone for PageStore {
    fn clone(&self) -> Self {
        let pages = self
            .pages
            .iter()
            .map(|page| match spare_frame() {
                Some(mut bytes) => {
                    bytes.copy_from_slice(page.as_bytes());
                    PageBuf { bytes }
                }
                None => page.clone(),
            })
            .collect();
        PageStore { pages }
    }
}

impl Drop for PageStore {
    /// Pushes the last page first, so that page `i` of the next store on
    /// the thread gets the frame page `i` had: a rebuild of the same dataset
    /// reads its pages at the addresses the first load laid out.
    fn drop(&mut self) {
        // While the thread's list is torn down, the frames go back to the
        // allocator with `self.pages`.
        let _ = SPARE.try_with(|spare| {
            for page in self.pages.drain(..).rev() {
                spare.push(page.bytes);
            }
        });
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

    /// Addresses of every frame in `s`, in id order.
    fn frames(s: &PageStore) -> Vec<*const u8> {
        (0..s.live_pages() as u64)
            .map(|i| s.read(PageId(i)).as_bytes().as_ptr())
            .collect()
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
        // Freeing is dropping the store: its frames go to the spare list,
        // and the next store on this thread takes them in page order.
        let old = frames(&s);
        drop(s);
        let mut t = PageStore::new();
        t.allocate();
        t.allocate();
        assert_eq!(frames(&t), old);
        assert_eq!(t.read(a).get_u64(0), 0, "a's old frame is zeroed");
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
            assert!(
                catch_unwind(move || s.write_pair(PageId(0), id).0.get_u64(0)).is_err(),
                "write_pair {id:?}"
            );
        }
    }

    /// A store with every byte of every page set, dropped: the frames come
    /// back zeroed to the next store, and a clone copies all of each page.
    #[test]
    fn recycled_frames_read_zero_and_clones_copy_every_byte() {
        const PAGES: u64 = 40;
        let mut dirty = PageStore::new();
        for _ in 0..PAGES {
            let id = dirty.allocate();
            dirty.write(id).as_bytes_mut().fill(0xFF);
        }
        let spare = frames(&dirty);
        drop(dirty);

        let mut fresh = PageStore::new();
        for i in 0..PAGES {
            fresh.allocate();
            assert!(fresh.read(PageId(i)).as_bytes().iter().all(|&b| b == 0));
        }
        assert_eq!(frames(&fresh), spare, "every frame came off the spare list");

        for i in 0..PAGES {
            for (j, b) in fresh.write(PageId(i)).as_bytes_mut().iter_mut().enumerate() {
                *b = (i as usize * 31 + j) as u8;
            }
        }
        let first = fresh.clone();
        let spare = frames(&first);
        drop(first);
        let copy = fresh.clone();
        assert_eq!(frames(&copy), spare, "the clone took the spare frames");
        for i in 0..PAGES {
            let id = PageId(i);
            assert_eq!(copy.read(id).as_bytes(), fresh.read(id).as_bytes());
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
