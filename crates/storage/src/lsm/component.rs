//! Immutable sorted LSM components, memory- or disk-backed.
//!
//! Both backings present one API: the key column and Bloom filter are
//! always resident (they are what a point lookup touches first); entry
//! payloads either live in memory (`Backing::Mem`, the default) or stay
//! in a component file and are fetched block-at-a-time through the
//! tree's shared [`BlockCache`] (`Backing::Disk`). Accessors return
//! *owned* entries (`Arc` clones) so a disk-backed read does not need to
//! borrow from an evicting cache.

use std::path::Path;
use std::sync::Arc;

use idea_adm::Value;

use super::bloom::BloomFilter;
use super::{Entry, KeyRange, Memtable};
use crate::error::StorageError;
use crate::persist::{
    BlockCache, ColumnarFile, ColumnarReader, ComponentFile, OpenColumnar, OpenComponent,
};

/// Where a component's entry payloads live.
enum Backing {
    /// Entries resident in memory (in-memory trees, and the fallback
    /// when a durable flush cannot write its file).
    Mem(Vec<Entry>),
    /// Entries in a row-major component file, read through the shared
    /// block cache.
    Disk { file: Arc<ComponentFile>, cache: Arc<BlockCache> },
    /// Entries in a column-major component file: the row path reads the
    /// per-page row sections through the same cache, while vectorized
    /// scans slice the typed column pages via [`Component::columnar`].
    Col { file: Arc<ColumnarFile>, cache: Arc<BlockCache> },
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Mem(e) => write!(f, "Mem({} entries)", e.len()),
            Backing::Disk { file, .. } => write!(f, "Disk({:?})", file.path()),
            Backing::Col { file, .. } => write!(f, "Col({:?})", file.path()),
        }
    }
}

/// An immutable, sorted run of `(key, entry)` pairs produced by a flush
/// or a merge. Lookup consults a Bloom filter, then binary-searches the
/// key column. Records are `Arc<Value>` so reads share allocations
/// instead of deep-cloning.
#[derive(Debug)]
pub struct Component {
    id: u64,
    keys: Vec<Value>,
    backing: Backing,
    bloom: BloomFilter,
    approx_bytes: usize,
}

impl Component {
    fn from_columns(id: u64, keys: Vec<Value>, entries: Vec<Entry>) -> Self {
        let bloom = BloomFilter::build(keys.iter());
        let approx_bytes = keys
            .iter()
            .zip(entries.iter())
            .map(|(k, e)| k.approx_size() + e.as_ref().map(|v| v.approx_size()).unwrap_or(1))
            .sum();
        Component { id, keys, backing: Backing::Mem(entries), bloom, approx_bytes }
    }

    /// Freezes a (sealed) memtable into a component. Keys are cloned,
    /// record payloads are shared via `Arc`.
    pub fn from_frozen(id: u64, mem: &Memtable) -> Self {
        let mut keys = Vec::with_capacity(mem.len());
        let mut entries = Vec::with_capacity(mem.len());
        for (k, e) in mem.iter() {
            keys.push(k.clone());
            entries.push(e.clone());
        }
        Component::from_columns(id, keys, entries)
    }

    /// Consumes a memtable into a component.
    pub fn from_memtable(id: u64, mem: Memtable) -> Self {
        let pairs = mem.into_entries();
        Component::from_sorted(id, pairs)
    }

    /// Builds a component directly from sorted, deduplicated pairs
    /// (bulk load).
    pub fn from_sorted(id: u64, pairs: Vec<(Value, Entry)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "component build requires sorted unique keys"
        );
        let mut keys = Vec::with_capacity(pairs.len());
        let mut entries = Vec::with_capacity(pairs.len());
        for (k, e) in pairs {
            keys.push(k);
            entries.push(e);
        }
        Component::from_columns(id, keys, entries)
    }

    /// Wraps an opened (or freshly written) component file. The key
    /// column and Bloom filter came from the file's footer; entry reads
    /// go through `cache`.
    pub fn from_open(open: OpenComponent, cache: Arc<BlockCache>) -> Self {
        Component {
            id: open.id,
            keys: open.keys,
            backing: Backing::Disk { file: open.file, cache },
            bloom: open.bloom,
            approx_bytes: open.approx_bytes,
        }
    }

    /// Wraps an opened (or freshly written) *columnar* component file;
    /// row-section reads go through `cache` keyed by page.
    pub fn from_columnar(open: OpenColumnar, cache: Arc<BlockCache>) -> Self {
        Component {
            id: open.id,
            keys: open.keys,
            backing: Backing::Col { file: open.file, cache },
            bloom: open.bloom,
            approx_bytes: open.approx_bytes,
        }
    }

    /// Merges components (index 0 = newest) into one in-memory
    /// component. The durable path streams [`merge_iter`] straight into
    /// a file writer instead.
    pub fn merge(id: u64, components: &[Arc<Component>], drop_tombstones: bool) -> Component {
        let mut keys = Vec::new();
        let mut entries = Vec::new();
        for (k, e) in merge_iter(components, drop_tombstones) {
            keys.push(k);
            entries.push(e);
        }
        Component::from_columns(id, keys, entries)
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the entries are backed by a component file (either
    /// layout) — what manifest bookkeeping keys off.
    pub fn is_disk(&self) -> bool {
        matches!(self.backing, Backing::Disk { .. } | Backing::Col { .. })
    }

    /// The backing row-major file, when one exists.
    pub fn file(&self) -> Option<&Arc<ComponentFile>> {
        match &self.backing {
            Backing::Disk { file, .. } => Some(file),
            _ => None,
        }
    }

    /// Path and cache uid of the backing file regardless of layout
    /// (retired-file deletion and cache eviction).
    pub fn disk_file(&self) -> Option<(&Path, u64)> {
        match &self.backing {
            Backing::Mem(_) => None,
            Backing::Disk { file, .. } => Some((file.path(), file.uid())),
            Backing::Col { file, .. } => Some((file.path(), file.uid())),
        }
    }

    /// A page-level read handle when this component is columnar-backed
    /// (the vectorized scan's transpose-free input).
    pub fn columnar(&self) -> Option<ColumnarReader> {
        match &self.backing {
            Backing::Col { file, cache } => {
                Some(ColumnarReader::new(Arc::clone(file), Arc::clone(cache)))
            }
            _ => None,
        }
    }

    /// Approximate payload footprint, used by size-based merge policies
    /// and the write-amplification accounting.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Entry at key-column position `index`. Disk-backed components
    /// fetch the containing block through the cache; an unreadable or
    /// corrupt block is recorded on the cache and surfaces as an error —
    /// never as "absent", which would let the lookup fall through to an
    /// older component and serve a stale or resurrected value.
    fn entry_at(&self, index: usize) -> Result<Entry, StorageError> {
        fn cached_read(
            cache: &BlockCache,
            key: (u64, u32),
            read: impl FnOnce() -> Result<Vec<Entry>, StorageError>,
        ) -> Result<Arc<Vec<Entry>>, StorageError> {
            match cache.get(key) {
                Some(b) => Ok(b),
                None => match read() {
                    Ok(entries) => {
                        let b = Arc::new(entries);
                        cache.insert(key, Arc::clone(&b));
                        Ok(b)
                    }
                    Err(e) => {
                        cache.note_read_error();
                        Err(e)
                    }
                },
            }
        }
        match &self.backing {
            Backing::Mem(entries) => Ok(entries[index].clone()),
            Backing::Disk { file, cache } => {
                let (block, offset) = file.locate(index);
                let decoded = cached_read(cache, (file.uid(), block), || file.read_block(block))?;
                decoded.get(offset).cloned().ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "component {:?}: block {block} too short for offset {offset}",
                        file.path()
                    ))
                })
            }
            Backing::Col { file, cache } => {
                let (page, offset) = file.locate(index);
                let decoded = cached_read(cache, (file.uid(), page), || file.read_rows(page))?;
                decoded.get(offset).cloned().ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "component {:?}: page {page} too short for offset {offset}",
                        file.path()
                    ))
                })
            }
        }
    }

    /// Entry lookup: `Ok(None)` = key not in this component,
    /// `Ok(Some(None))` = tombstone. The Bloom filter short-circuits
    /// probes for keys the component cannot hold. An I/O or checksum
    /// failure on the backing file is an error, not "absent".
    pub fn get(&self, key: &Value) -> Result<Option<Entry>, StorageError> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        match self.keys.binary_search_by(|k| k.cmp(key)) {
            Ok(i) => self.entry_at(i).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Iterates `(key, entry)` pairs in key order, tombstones included.
    /// Disk-backed components stream blocks sequentially; a scan probes
    /// the cache but does not populate it (scan resistance). A block
    /// read failure ends the iteration and is recorded on the iterator
    /// ([`ComponentIter::error`]) — consumers that produce durable state
    /// from a scan (merges) must check it and treat a partial stream as
    /// a failure, never as a complete one.
    pub fn iter(&self) -> ComponentIter<'_> {
        self.iter_range(&KeyRange::all())
    }

    /// Like [`iter`](Self::iter), restricted to keys in `range`: the
    /// resident key column is seeked by `partition_point`, so the first
    /// block read is the one holding the first in-range key.
    pub fn iter_range(&self, range: &KeyRange) -> ComponentIter<'_> {
        let span = range.span(&self.keys, |k| k);
        ComponentIter { comp: self, index: span.start, end: span.end, block: None, error: None }
    }
}

/// Owned iterator over one component's `(key, entry)` pairs.
pub struct ComponentIter<'a> {
    comp: &'a Component,
    index: usize,
    /// One past the last key-column position to yield.
    end: usize,
    /// Current decoded block for disk backings: (block idx, entries).
    block: Option<(u32, Arc<Vec<Entry>>)>,
    /// Set when a block read failed; the iteration ended early.
    error: Option<StorageError>,
}

impl ComponentIter<'_> {
    /// The read error that cut the iteration short, if any. While set,
    /// the pairs yielded so far are a *prefix* of the component, not the
    /// whole of it.
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Ensures the current decoded frame is `frame` (probing the cache,
    /// loading without populating on a miss) and returns the entry at
    /// `offset` within it. A read failure records the error and ends
    /// the iteration.
    fn frame_entry(
        &mut self,
        cache: &BlockCache,
        uid: u64,
        frame: u32,
        offset: usize,
        read: impl FnOnce() -> Result<Vec<Entry>, StorageError>,
    ) -> Option<Entry> {
        let need_load = !matches!(&self.block, Some((b, _)) if *b == frame);
        if need_load {
            let loaded = match cache.get((uid, frame)) {
                Some(b) => b,
                None => match read() {
                    Ok(entries) => Arc::new(entries),
                    Err(e) => {
                        cache.note_read_error();
                        self.error = Some(e);
                        self.index = self.end;
                        return None;
                    }
                },
            };
            self.block = Some((frame, loaded));
        }
        Some(self.block.as_ref().unwrap().1[offset].clone())
    }
}

impl Iterator for ComponentIter<'_> {
    type Item = (Value, Entry);

    fn next(&mut self) -> Option<Self::Item> {
        if self.index >= self.end {
            return None;
        }
        let comp = self.comp;
        let key = comp.keys[self.index].clone();
        // Both file-backed arms stream frames sequentially, probing the
        // cache without populating it (scan resistance). A corrupt
        // frame ends the scan early; the error is counted and recorded
        // so the consumer can tell this stream is a prefix, not the
        // full component.
        let entry = match &comp.backing {
            Backing::Mem(entries) => entries[self.index].clone(),
            Backing::Disk { file, cache } => {
                let (block, offset) = file.locate(self.index);
                self.frame_entry(cache, file.uid(), block, offset, || file.read_block(block))?
            }
            Backing::Col { file, cache } => {
                let (page, offset) = file.locate(self.index);
                self.frame_entry(cache, file.uid(), page, offset, || file.read_rows(page))?
            }
        };
        self.index += 1;
        Some((key, entry))
    }
}

/// K-way merge over components (index 0 = newest); the newest entry per
/// key wins. Tombstones are dropped only when `drop_tombstones` — safe
/// only when the merge includes the *oldest* component of the tree,
/// otherwise a dropped tombstone would resurrect an older shadowed
/// entry.
///
/// A source that hits a block read error ends early; the merged stream
/// is then silently missing that source's tail. Consumers that persist
/// the merged output **must** check [`MergeIter::error`] after draining
/// and discard the output if it is set.
pub fn merge_iter<'a>(components: &'a [Arc<Component>], drop_tombstones: bool) -> MergeIter<'a> {
    MergeIter {
        sources: components.iter().map(|c| MergeSource::new(c.iter())).collect(),
        drop_tombstones,
    }
}

/// One source of a [`MergeIter`]: a component iterator plus a one-item
/// lookahead (a hand-rolled `Peekable` that keeps the underlying
/// iterator — and its error state — reachable).
struct MergeSource<'a> {
    iter: ComponentIter<'a>,
    head: Option<(Value, Entry)>,
}

impl<'a> MergeSource<'a> {
    fn new(mut iter: ComponentIter<'a>) -> Self {
        let head = iter.next();
        MergeSource { iter, head }
    }

    fn advance(&mut self) -> Option<(Value, Entry)> {
        let next = self.iter.next();
        std::mem::replace(&mut self.head, next)
    }
}

/// K-way merging iterator returned by [`merge_iter`].
pub struct MergeIter<'a> {
    /// Per-component sources, newest first.
    sources: Vec<MergeSource<'a>>,
    drop_tombstones: bool,
}

impl MergeIter<'_> {
    /// The first read error hit by any source, if one occurred. While
    /// set, the merged output is a truncated view of the inputs and must
    /// not be installed as a replacement for them.
    pub fn error(&self) -> Option<&StorageError> {
        self.sources.iter().find_map(|s| s.iter.error())
    }
}

impl Iterator for MergeIter<'_> {
    type Item = (Value, Entry);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut best: Option<(usize, Value)> = None;
            for (i, src) in self.sources.iter().enumerate() {
                if let Some((k, _)) = &src.head {
                    let better = match &best {
                        None => true,
                        Some((_, bk)) => k < bk,
                    };
                    if better {
                        best = Some((i, k.clone()));
                    }
                }
            }
            let (winner, key) = best?;
            let (_, entry) = self.sources[winner].advance().unwrap();
            for (i, src) in self.sources.iter_mut().enumerate() {
                if i != winner {
                    while matches!(&src.head, Some((k, _)) if *k == key) {
                        src.advance();
                    }
                }
            }
            if entry.is_some() || !self.drop_tombstones {
                return Some((key, entry));
            }
            // Dropped tombstone: keep going.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(id: u64, pairs: Vec<(i64, Option<&str>)>) -> Arc<Component> {
        Arc::new(Component::from_sorted(
            id,
            pairs
                .into_iter()
                .map(|(k, v)| (Value::Int(k), v.map(|s| Arc::new(Value::str(s)))))
                .collect(),
        ))
    }

    #[test]
    fn binary_search_get() {
        let c = comp(0, vec![(1, Some("a")), (3, Some("b")), (5, None)]);
        assert_eq!(c.get(&Value::Int(3)).unwrap(), Some(Some(Arc::new(Value::str("b")))));
        assert_eq!(c.get(&Value::Int(5)).unwrap(), Some(None));
        assert_eq!(c.get(&Value::Int(2)).unwrap(), None);
    }

    #[test]
    fn merge_newest_wins_and_drops_tombstones() {
        let newest = comp(2, vec![(1, Some("new")), (2, None)]);
        let oldest = comp(1, vec![(1, Some("old")), (2, Some("gone")), (3, Some("keep"))]);
        let merged = Component::merge(3, &[newest, oldest], true);
        let got: Vec<(i64, String)> = merged
            .iter()
            .map(|(k, e)| (k.as_int().unwrap(), e.as_ref().unwrap().as_str().unwrap().to_owned()))
            .collect();
        assert_eq!(got, vec![(1, "new".to_owned()), (3, "keep".to_owned())]);
    }

    #[test]
    fn partial_merge_keeps_tombstones() {
        let newest = comp(2, vec![(1, Some("new")), (2, None)]);
        let middle = comp(1, vec![(2, Some("shadowed"))]);
        let merged = Component::merge(3, &[newest, middle], false);
        assert_eq!(merged.get(&Value::Int(2)).unwrap(), Some(None), "tombstone must survive");
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_of_disjoint_interleaves() {
        let a = comp(1, vec![(1, Some("a")), (4, Some("d"))]);
        let b = comp(0, vec![(2, Some("b")), (3, Some("c"))]);
        let merged = Component::merge(2, &[a, b], true);
        let keys: Vec<i64> = merged.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn approx_bytes_tracks_payload() {
        let small = comp(0, vec![(1, Some("x"))]);
        let big = comp(1, vec![(1, Some("a much longer payload string")), (2, Some("y"))]);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn disk_backed_component_reads_like_memory() {
        use crate::persist::{component_file_name, ComponentFileWriter, TempDir};
        let tmp = TempDir::new("component-disk");
        let mem =
            comp(7, (0..200).map(|i| (i, if i % 9 == 0 { None } else { Some("v") })).collect());
        let path = tmp.path().join(component_file_name(7));
        let mut w = ComponentFileWriter::create(&path, 7, 512).unwrap();
        for (k, e) in mem.iter() {
            w.push(k, &e).unwrap();
        }
        let open = w.finish(false).unwrap();
        let cache = Arc::new(BlockCache::new(4));
        let disk = Component::from_open(open, Arc::clone(&cache));
        assert!(disk.is_disk());
        assert_eq!(disk.len(), mem.len());
        assert_eq!(disk.approx_bytes(), mem.approx_bytes());
        for i in 0..200 {
            assert_eq!(
                disk.get(&Value::Int(i)).unwrap(),
                mem.get(&Value::Int(i)).unwrap(),
                "key {i}"
            );
        }
        assert!(cache.hits() > 0, "point reads should hit cached blocks");
        // Full scans agree too.
        let a: Vec<_> = disk.iter().collect();
        let b: Vec<_> = mem.iter().collect();
        assert_eq!(a, b);
        // And merging across backings works.
        let merged = Component::merge(8, &[Arc::new(disk), mem], true);
        assert_eq!(merged.len(), 200 - 23, "tombstones dropped"); // 0,9,..,198 → 23 keys
    }
}
