//! The append-only shared buffer behind every column payload.
//!
//! An [`AppendVec<T>`] is a view of the first `len` elements of one heap
//! allocation that many views — many table versions — share.  The
//! allocation records its capacity and how many of its slots have been
//! *claimed*; a claimed slot is written once, before any view covers it,
//! and never again.  A view whose length equals the claim is the buffer's
//! *tip*: [`AppendVec::extended`] claims the next slots with one
//! compare-and-swap and writes a batch into spare capacity, so an append
//! costs O(batch) and every older view keeps reading exactly its
//! `[0, len)`.  When the view is not the tip (a sibling successor claimed
//! those slots first) or the batch does not fit, `extended` copies into a
//! fresh allocation of [`GROWTH`] times the needed length.  Readers never
//! synchronise with writers: a view derefs to a plain `&[T]`.
//!
//! This module holds all of the crate's `unsafe`.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A copy allocates this many times the length it needs, so the appends
/// after it extend in place.
const GROWTH: usize = 2;

/// One allocation of `cap` slots, the first `claimed` of them handed out.
struct Buffer<T: Copy> {
    ptr: *mut T,
    cap: usize,
    claimed: AtomicUsize,
}

// SAFETY: `ptr` owns its allocation as a `Vec<T>`'s would, `cap` never
// changes, and `claimed` is atomic.  Each slot is written once, by the one
// thread whose compare-and-swap claimed it, before any view covers it;
// after that it is only read, through views.  So sending or sharing a
// buffer across threads is as safe as sending or sharing the `T`s in it.
unsafe impl<T: Copy + Send + Sync> Send for Buffer<T> {}
// SAFETY: as for `Send` above: shared access reads only written slots, and
// each unwritten slot has a single writer, chosen by the claim.
unsafe impl<T: Copy + Send + Sync> Sync for Buffer<T> {}

impl<T: Copy> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `cap` are those of the `Vec<T>` this buffer took
        // over in `From<Vec<T>>`, and nothing else frees them.  Length 0 is
        // enough: `T: Copy` elements need no drop.
        drop(unsafe { Vec::from_raw_parts(self.ptr, 0, self.cap) });
    }
}

/// A shared, append-only vector: `len` elements of a buffer that other
/// views may share and extend beyond `len`, never below it.  Cloning a
/// view is a reference-count increment.
#[derive(Clone)]
pub struct AppendVec<T: Copy> {
    buf: Arc<Buffer<T>>,
    /// `buf.ptr`, kept in the view so that a deref reads only the view,
    /// as a `Vec`'s does.
    ptr: *const T,
    len: usize,
}

// SAFETY: `buf` is an `Arc` of a buffer that is `Send + Sync` for these
// `T`, `ptr` is a copy of that buffer's pointer which the view only reads
// through, and `len` never changes.
unsafe impl<T: Copy + Send + Sync> Send for AppendVec<T> {}
// SAFETY: as for `Send` above; `&AppendVec` gives only `&[T]` access.
unsafe impl<T: Copy + Send + Sync> Sync for AppendVec<T> {}

impl<T: Copy> AppendVec<T> {
    /// This view's elements followed by `items`.  When this view is the
    /// buffer's tip and `items` fit its spare capacity they are written in
    /// place and nothing is copied; otherwise both are copied into an
    /// allocation of [`GROWTH`] times the new length.  Either way `self` and
    /// every other view of the buffer read exactly what they read before.
    pub(crate) fn extended(&self, items: &[T]) -> AppendVec<T> {
        if items.is_empty() {
            return self.clone();
        }
        let len = self.len + items.len();
        let buf = &self.buf;
        // The claim publishes no data: the slots written below reach other
        // threads only through the view returned here, which the caller
        // publishes (a catalog snapshot behind a lock).  Only the
        // compare-and-swap's atomicity matters, so `Relaxed` suffices.
        if len <= buf.cap
            && buf
                .claimed
                .compare_exchange(self.len, len, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // SAFETY: the compare-and-swap moved the claim from this view's
            // end to `len`, so slots `self.len..len` lie inside the
            // allocation (`len <= cap`), were never handed out before, and
            // are this thread's alone; no view covers them until the one
            // returned here.  `items` cannot overlap them: any slice of this
            // buffer ends at or below the old claim.
            unsafe {
                std::ptr::copy_nonoverlapping(items.as_ptr(), buf.ptr.add(self.len), items.len());
            }
            return AppendVec {
                buf: Arc::clone(buf),
                ptr: self.ptr,
                len,
            };
        }
        let mut copy = Vec::with_capacity(GROWTH * len);
        copy.extend_from_slice(self);
        copy.extend_from_slice(items);
        copy.into()
    }
}

impl<T: Copy> From<Vec<T>> for AppendVec<T> {
    /// Takes over the vector's allocation, spare capacity included; no
    /// element is copied.
    fn from(v: Vec<T>) -> Self {
        let mut v = ManuallyDrop::new(v);
        let (ptr, len) = (v.as_mut_ptr(), v.len());
        AppendVec {
            buf: Arc::new(Buffer {
                ptr,
                cap: v.capacity(),
                claimed: AtomicUsize::new(len),
            }),
            ptr,
            len,
        }
    }
}

impl<T: Copy> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<T: Copy> Deref for AppendVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is `buf.ptr`; the first `len` slots were written
        // before this view was created and are never written again (writes
        // go only to slots claimed past every view's end), and `buf` keeps
        // the allocation alive for as long as the returned borrow of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for AppendVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<[T; N]> for AppendVec<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        **self == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// True when `a` and `b` are views of one allocation.
    fn same_buffer<T: Copy>(a: &AppendVec<T>, b: &AppendVec<T>) -> bool {
        Arc::ptr_eq(&a.buf, &b.buf)
    }

    #[test]
    fn readers_of_older_views_see_exactly_their_rows_while_the_tip_grows() {
        // Every version is published before it is read, as a catalog
        // snapshot is; readers on two other threads hold every version
        // published so far and re-read them all while the writer extends
        // the tip in place 1 000 times.
        const APPENDS: usize = 1_000;
        let published = std::sync::Mutex::new(vec![AppendVec::from(Vec::<u64>::new())]);
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let in_place = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    let mut rounds = 0u64;
                    while !done.load(Ordering::Acquire) || rounds == 0 {
                        let versions = published.lock().unwrap().clone();
                        for (v, view) in versions.iter().enumerate() {
                            // Version `v` holds appends `0..v`, each of
                            // three elements `3a, 3a + 1, 3a + 2`.
                            assert_eq!(view.len(), 3 * v);
                            assert!(view.iter().enumerate().all(|(i, &x)| x == i as u64));
                        }
                        rounds += 1;
                    }
                });
            }
            start.wait();
            let mut in_place = 0;
            let mut tip = AppendVec::from(Vec::new());
            for a in 0..APPENDS as u64 {
                let next = tip.extended(&[3 * a, 3 * a + 1, 3 * a + 2]);
                in_place += usize::from(same_buffer(&tip, &next));
                published.lock().unwrap().push(next.clone());
                tip = next;
            }
            done.store(true, Ordering::Release);
            in_place
        });
        // Copies happen only when capacity runs out, once per doubling.
        assert!(in_place >= APPENDS - 12, "{in_place} of {APPENDS} in place");
        let versions = published.into_inner().unwrap();
        for (v, view) in versions.iter().enumerate() {
            assert_eq!(view.len(), 3 * v);
            assert!(view.iter().enumerate().all(|(i, &x)| x == i as u64));
        }
    }

    #[test]
    fn sibling_successors_each_read_back_their_own_batch() {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&[1i64, 2, 3]);
        let parent = AppendVec::from(v);
        let first = parent.extended(&[10, 11]);
        let second = parent.extended(&[20, 21, 22]);
        assert!(
            same_buffer(&parent, &first),
            "the first claims the tip in place"
        );
        assert!(
            !same_buffer(&parent, &second),
            "the second finds it claimed and copies"
        );
        assert_eq!(parent, [1, 2, 3]);
        assert_eq!(first, [1, 2, 3, 10, 11]);
        assert_eq!(second, [1, 2, 3, 20, 21, 22]);
        // Each successor is the tip of its own buffer and grows in place.
        let third = second.extended(&[23]);
        assert!(same_buffer(&second, &third));
        assert_eq!(third, [1, 2, 3, 20, 21, 22, 23]);
        assert!(same_buffer(&first, &first.extended(&[12])));
        assert_eq!(
            first,
            [1, 2, 3, 10, 11],
            "a successor never moves its parent"
        );
    }

    #[test]
    fn an_exactly_sized_buffer_copies_once_then_extends_in_place() {
        // What every `TableBuilder` freezes: capacity equal to length.
        let exact = AppendVec::from(vec![7u32; 5]);
        let once = exact.extended(&[8]);
        assert!(!same_buffer(&exact, &once), "no spare capacity: one copy");
        assert_eq!(once.buf.cap, GROWTH * 6);
        let mut tip = once.clone();
        for x in 9..12 {
            let next = tip.extended(&[x]);
            assert!(same_buffer(&once, &next), "then in place");
            tip = next;
        }
        assert_eq!(tip, [7, 7, 7, 7, 7, 8, 9, 10, 11]);
        assert_eq!(exact, [7; 5]);
        // An empty batch claims nothing, so the tip stays the tip.
        assert!(same_buffer(&tip, &tip.extended(&[])));
        assert!(same_buffer(&tip, &tip.extended(&[12])));
    }
}
