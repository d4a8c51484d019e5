//! Offline vendored subset of the `rayon` API.
//!
//! Real rayon is unreachable in this build environment, so the slice of its
//! API the workspace consumes is re-implemented on `std::thread::scope`:
//!
//! * `(range | vec).into_par_iter().map(f).collect()` (also `filter_map`,
//!   `for_each`, `sum`) — order-preserving, eager;
//! * [`slice::ParallelSliceMut::par_sort_unstable_by_key`] and friends —
//!   parallel chunk sort + bottom-up merge.
//!
//! Unlike real rayon there is no global work-stealing pool: each adaptor
//! spawns scoped threads (bounded by `available_parallelism`) per call. For
//! the coarse-grained loops this workspace runs (one protocol simulation or
//! one weight table per item), that overhead is noise.

#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// Everything a `use rayon::prelude::*` consumer expects.
pub mod prelude {
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
    pub use crate::{IntoParallelIterator, ParIter};
}

pub mod slice;

/// Number of worker threads used by the adaptors.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Order-preserving parallel map: applies `f` to every item, fanning chunks
/// out over scoped threads.
fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    let f = &f;
    let results: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// An eager, order-preserving parallel iterator over an owned buffer.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map. Output order matches input order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync + Send,
    {
        ParIter {
            items: par_map_vec(self.items, f),
        }
    }

    /// Parallel filter-map. Surviving items keep their relative order.
    pub fn filter_map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync + Send,
    {
        ParIter {
            items: par_map_vec(self.items, f).into_iter().flatten().collect(),
        }
    }

    /// Parallel for-each (effects only).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync + Send,
    {
        let _ = par_map_vec(self.items, f);
    }

    /// Collects into any `FromIterator` container, preserving order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Converts `self`, realizing the items eagerly.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_par_iter!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0u64..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_preserves_order() {
        let out: Vec<u64> = (0u64..100)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x))
            .collect();
        assert_eq!(out, (0u64..100).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn sum_and_vec_sources() {
        let s: u64 = vec![1u64, 2, 3, 4].into_par_iter().map(|x| x).sum();
        assert_eq!(s, 10);
    }
}
