//! The store's one read pipeline: streaming, batch-at-a-time scans with
//! cooperative cancellation. Every read of more than one key — user
//! scans, the storage layer's refine pipeline, kNN rings — and every
//! maintenance rewrite (compaction, region split and merge) goes through
//! the types here:
//!
//! - `SstRangeIter` is the only code that walks SSTable blocks for a
//!   range: it decodes one block per refill, seeking the first.
//! - [`MergeStream`] is the only k-way merge: a binary heap over one
//!   region's layers (memtable snapshots, then one lazy block iterator
//!   per SSTable), newest source winning each key. Its tombstone-keeping
//!   pull feeds compaction, split and merge straight into an SSTable
//!   builder; [`MergeStream::next_live`] filters tombstones out for
//!   reads.
//! - [`ScanStream`] walks a list of key ranges region by region and
//!   yields bounded batches via [`ScanStream::next_batch`]; no more than
//!   one batch plus one decoded block per source is ever in flight. The
//!   materializing conveniences (`Table::scan`, `Region::scan`, ...) are
//!   drains of these streams.
//! - [`CancelToken`] lets a satisfied consumer stop the producer
//!   mid-range: the stream re-checks the token between entries, so
//!   cancellation halts disk IO within one block's worth of work.
//!
//! Every batch increments `just_kvstore_batches_emitted` and feeds the
//! `just_kvstore_batch_bytes` histogram; every pulled stream records one
//! `just_kvstore_scan_latency_us` sample, from its first pull until it
//! runs dry or is dropped. A stream dropped before its ranges run dry
//! counts one `just_kvstore_scan_early_terminations` — the observable
//! signature of pushdown actually saving IO. Region merges charge the
//! live bytes they yield to the region's `bytes_read` (see
//! [`crate::RegionTrafficSnapshot`]); maintenance merges charge nothing.
//!
//! ```
//! use just_kvstore::{ScanOptions, Store, StoreOptions};
//! let dir = std::env::temp_dir().join(format!("kv-scan-doc-{}", std::process::id()));
//! let store = Store::open(&dir, StoreOptions::default()).unwrap();
//! let table = store.create_table("demo", 4).unwrap();
//! for i in 0..100u32 {
//!     table.put(format!("k{i:04}").into_bytes(), b"v".to_vec()).unwrap();
//! }
//! let mut stream = table.scan_stream(b"k0000", b"k9999", ScanOptions::default());
//! let first_batch = stream.next_batch().unwrap().unwrap();
//! assert_eq!(first_batch[0].key, b"k0000");
//! drop(stream); // remaining ranges are never read
//! store.drop_table("demo").unwrap();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::block::{Block, BlockCursor, BlockEntry};
use crate::error::Result;
use crate::metrics::IoMetrics;
use crate::region::{Region, RegionTraffic, Snapshot};
use crate::sstable::SsTable;
use crate::KvEntry;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

/// A shared flag a consumer sets to stop a [`ScanStream`] producer.
///
/// Cancellation is cooperative: the stream checks the token between
/// entries and stops fetching blocks once it is set. Clones share the
/// same flag, so the token can be handed to the consumer while the
/// stream keeps its own copy.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// Tuning for one streaming scan.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Maximum entries per batch from [`ScanStream::next_batch`]; bounds
    /// the consumer-visible in-flight memory.
    pub batch_rows: usize,
    /// Cancellation flag shared with the consumer.
    pub cancel: CancelToken,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            batch_rows: 1024,
            cancel: CancelToken::new(),
        }
    }
}

/// The inclusive key ranges one [`MergeStream`] walks, ascending and
/// disjoint, shared by all of its sources.
pub(crate) type KeyRanges = Arc<[(Vec<u8>, Vec<u8>)]>;

/// `[start, end]` as a one-range [`KeyRanges`].
pub(crate) fn one_range(start: &[u8], end: &[u8]) -> KeyRanges {
    Arc::new([(start.to_vec(), end.to_vec())])
}

/// Lazy in-order iterator over one SSTable's entries in a list of key
/// ranges (tombstones included), decoding one block per refill instead
/// of whole ranges. Consecutive ranges often start inside the block the
/// previous one ended in; with a block cache, that block is re-seeked
/// from where the last range stopped rather than fetched again, so a
/// narrow range costs a few key comparisons rather than a block fetch.
struct SstRangeIter {
    table: Arc<SsTable>,
    ranges: KeyRanges,
    /// Index of the range being walked.
    range: usize,
    /// Next block to fetch in the current range; `None` before its first
    /// fetch, which seeks to the range start (and counts as a disk seek).
    next_block: Option<usize>,
    /// Whether the current range's end key has been passed.
    range_done: bool,
    /// The last block fetched, with its index and where the walk
    /// stopped in it.
    held: Option<(usize, Block, BlockCursor)>,
    buffered: std::vec::IntoIter<BlockEntry>,
    /// Region charged with every block this iterator decodes; `None`
    /// for maintenance merges, which are not region scan traffic.
    traffic: Option<Arc<RegionTraffic>>,
}

impl SstRangeIter {
    fn new(table: Arc<SsTable>, ranges: KeyRanges, traffic: Option<Arc<RegionTraffic>>) -> Self {
        SstRangeIter {
            table,
            ranges,
            range: 0,
            next_block: None,
            range_done: false,
            held: None,
            buffered: Vec::new().into_iter(),
            traffic,
        }
    }

    /// Moves on to the next range.
    fn next_range(&mut self) {
        self.range += 1;
        self.next_block = None;
        self.range_done = false;
    }

    fn next(&mut self) -> Result<Option<BlockEntry>> {
        loop {
            if let Some(entry) = self.buffered.next() {
                return Ok(Some(entry));
            }
            let Some((start, end)) = self.ranges.get(self.range) else {
                return Ok(None);
            };
            let idx = match (self.next_block, &self.held) {
                (Some(idx), _) => idx,
                (None, _) if !self.table.overlaps(start, end) => {
                    // Pruned by the min/max fence: no block touched.
                    self.table.metrics().record_index_skip();
                    self.next_range();
                    continue;
                }
                // Ranges ascend: the next one usually starts in the block
                // the last one stopped in.
                (None, Some((held, ..))) if self.table.block_holds(*held, start) => *held,
                (None, _) => self.table.seek_block(start),
            };
            if self.range_done
                || idx >= self.table.block_count()
                || self.table.block_first_key(idx) > end.as_slice()
            {
                self.next_range();
                continue;
            }
            let seek = self.next_block.is_none();
            // The held block stands in for a block-cache hit, so a store
            // without a block cache fetches it again, from disk.
            let (block, cursor) = match self.held.take() {
                Some((held, block, cursor)) if held == idx && self.table.caches_blocks() => {
                    (block, cursor)
                }
                _ => {
                    let block = self.table.read_block(idx, seek)?;
                    if let Some(traffic) = &self.traffic {
                        traffic.record_scan_block();
                    }
                    (block, BlockCursor::default())
                }
            };
            // Decode up to the range end only: the first key past it
            // ends the range, and nothing after it is copied out.
            let mut entries = if seek {
                block.seek_from(cursor, start)
            } else {
                block.iter()
            }
            .until(end);
            self.buffered = entries.by_ref().collect::<Vec<_>>().into_iter();
            self.range_done = entries.past_end_key();
            let cursor = entries.into_cursor();
            self.next_block = Some(idx + 1);
            self.held = Some((idx, block, cursor));
        }
    }
}

enum SourceKind {
    /// Owned memtable snapshot (already range-restricted and sorted).
    Mem(std::vec::IntoIter<BlockEntry>),
    Sst(SstRangeIter),
}

/// One sorted input of a [`MergeStream`] — a memtable snapshot or a lazy
/// SSTable range iterator. Constructed by [`Region::scan_stream`] and by
/// region maintenance.
pub struct ScanSource(SourceKind);

impl ScanSource {
    pub(crate) fn mem(entries: Vec<BlockEntry>) -> Self {
        ScanSource(SourceKind::Mem(entries.into_iter()))
    }

    pub(crate) fn sstable(
        table: Arc<SsTable>,
        ranges: KeyRanges,
        traffic: Option<Arc<RegionTraffic>>,
    ) -> Self {
        ScanSource(SourceKind::Sst(SstRangeIter::new(table, ranges, traffic)))
    }

    fn next(&mut self) -> Result<Option<BlockEntry>> {
        match &mut self.0 {
            SourceKind::Mem(it) => Ok(it.next()),
            SourceKind::Sst(it) => it.next(),
        }
    }
}

struct HeapItem {
    entry: BlockEntry,
    source: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.entry.key == other.entry.key && self.source == other.source
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (key, source): the smallest key wins,
        // ties broken by newest (lowest) source index.
        other
            .entry
            .key
            .cmp(&self.entry.key)
            .then(other.source.cmp(&self.source))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A pull-based k-way merge over sorted sources, newest first (a
/// region's memtable, then its SSTables newest→oldest). Each key yields
/// its newest version only.
///
/// [`MergeStream::next_live`] is the read pull (tombstones elided);
/// region maintenance uses a tombstone-keeping pull to rewrite SSTables.
pub struct MergeStream {
    sources: Vec<ScanSource>,
    heap: BinaryHeap<HeapItem>,
    /// The heap is primed on first pull, not at construction, so
    /// building a stream does no IO (and a cancelled-before-start
    /// stream never touches disk).
    primed: bool,
    /// Region charged with the live bytes this merge yields, on drop;
    /// `None` for maintenance merges.
    traffic: Option<Arc<RegionTraffic>>,
    live_bytes: u64,
}

impl MergeStream {
    pub(crate) fn new(sources: Vec<ScanSource>, traffic: Option<Arc<RegionTraffic>>) -> Self {
        MergeStream {
            sources,
            heap: BinaryHeap::new(),
            primed: false,
            traffic,
            live_bytes: 0,
        }
    }

    pub(crate) fn empty() -> Self {
        Self::new(Vec::new(), None)
    }

    fn advance(&mut self, source: usize) -> Result<()> {
        if let Some(entry) = self.sources[source].next()? {
            self.heap.push(HeapItem { entry, source });
        }
        Ok(())
    }

    /// The newest version of the next key — a tombstone surfaces as
    /// `value: None` — or `None` when every source is drained.
    pub(crate) fn next_version(&mut self) -> Result<Option<BlockEntry>> {
        if !self.primed {
            self.primed = true;
            for i in 0..self.sources.len() {
                self.advance(i)?;
            }
        }
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        self.advance(top.source)?;
        // Sources hold unique sorted keys, so every older version of this
        // key is a source head right now, next in heap order: drop them.
        while self
            .heap
            .peek()
            .is_some_and(|h| h.entry.key == top.entry.key)
        {
            let shadowed = self.heap.pop().expect("peeked");
            self.advance(shadowed.source)?;
        }
        Ok(Some(top.entry))
    }

    /// The next live entry, or `None` when the merge is drained.
    pub fn next_live(&mut self) -> Result<Option<KvEntry>> {
        while let Some(entry) = self.next_version()? {
            if let Some(value) = entry.value {
                self.live_bytes += (entry.key.len() + value.len()) as u64;
                return Ok(Some(KvEntry {
                    key: entry.key,
                    value,
                }));
            }
        }
        Ok(None)
    }

    /// Drains every remaining live entry.
    pub fn collect_live(mut self) -> Result<Vec<KvEntry>> {
        let mut out = Vec::new();
        while let Some(entry) = self.next_live()? {
            out.push(entry);
        }
        Ok(out)
    }
}

impl Drop for MergeStream {
    fn drop(&mut self) {
        if let Some(traffic) = &self.traffic {
            traffic.record_scan_bytes(self.live_bytes);
        }
    }
}

/// A queued scan range: (region, start, end, snapshot seq).
pub(crate) type PendingRange = (Arc<Region>, Vec<u8>, Vec<u8>, u64);

/// A streaming multi-range scan over a [`crate::Table`].
///
/// Ranges are visited in the order given (entries within a range in key
/// order); regions within a range are visited low to high, which is key
/// order because the region map partitions the keyspace. Construction does no
/// IO — the first block is read when the first batch is pulled.
///
/// Dropping the stream before it runs dry (or cancelling its token)
/// counts one early termination; the un-read remainder of the ranges is
/// never fetched from disk.
pub struct ScanStream {
    /// (region, start, end, snapshot seq) work items, front first. The
    /// seq is [`crate::LATEST`] for plain scans; snapshot scans pin each
    /// region's read sequence at construction, so a range entered after
    /// an online split still reads the pre-split cut through `pins`.
    pending: VecDeque<PendingRange>,
    current: Option<MergeStream>,
    batch_rows: usize,
    cancel: CancelToken,
    metrics: Arc<IoMetrics>,
    /// Snapshot registrations kept alive for the stream's lifetime —
    /// they hold the regions' held generations (and the region `Arc`s
    /// themselves) until every pending range has been served.
    _pins: Vec<Arc<Snapshot>>,
    /// Ran dry naturally — distinguishes exhaustion from early drop.
    exhausted: bool,
    /// When the first pull happened. A stream that was never pulled
    /// records no latency and is not an "early termination" in any
    /// meaningful sense.
    started: Option<Instant>,
}

impl ScanStream {
    pub(crate) fn new(
        pending: VecDeque<PendingRange>,
        opts: ScanOptions,
        metrics: Arc<IoMetrics>,
    ) -> Self {
        Self::pinned(pending, opts, metrics, Vec::new())
    }

    pub(crate) fn pinned(
        pending: VecDeque<PendingRange>,
        opts: ScanOptions,
        metrics: Arc<IoMetrics>,
        pins: Vec<Arc<Snapshot>>,
    ) -> Self {
        ScanStream {
            pending,
            current: None,
            batch_rows: opts.batch_rows.max(1),
            cancel: opts.cancel,
            metrics,
            _pins: pins,
            exhausted: false,
            started: None,
        }
    }

    /// The stream's cancellation token (clone it into the consumer).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Pulls the next bounded batch of live entries; `Ok(None)` when the
    /// ranges are exhausted or the token was cancelled. A final partial
    /// batch may be shorter than `batch_rows`.
    pub fn next_batch(&mut self) -> Result<Option<Vec<KvEntry>>> {
        if self.exhausted {
            return Ok(None);
        }
        let started = *self.started.get_or_insert_with(Instant::now);
        let mut batch = Vec::with_capacity(self.batch_rows);
        let mut bytes = 0u64;
        while batch.len() < self.batch_rows {
            if self.cancel.is_cancelled() {
                break;
            }
            let stream = match &mut self.current {
                Some(s) => s,
                None => match self.pending.pop_front() {
                    Some((region, start, end, snap)) => {
                        let ranges = self.next_group(&region, (start, end), snap);
                        self.current = Some(region.scan_ranges_at(ranges, snap));
                        self.current.as_mut().expect("just set")
                    }
                    None => {
                        self.exhausted = true;
                        self.metrics.record_scan_latency(started.elapsed());
                        break;
                    }
                },
            };
            match stream.next_live()? {
                Some(entry) => {
                    bytes += (entry.key.len() + entry.value.len()) as u64;
                    batch.push(entry);
                }
                None => self.current = None,
            }
        }
        if batch.is_empty() {
            return Ok(None);
        }
        self.metrics.record_batch_emitted(bytes);
        Ok(Some(batch))
    }

    /// `first` plus the pending ranges right behind it that one merge
    /// can walk in the same pass: same region and snapshot, each starting
    /// past the previous one's end. Their concatenated output is the
    /// merge's output, so the per-range cost — region lock, memtable
    /// snapshot, one iterator and one block fetch per SSTable — is paid
    /// once per group.
    fn next_group(
        &mut self,
        region: &Arc<Region>,
        first: (Vec<u8>, Vec<u8>),
        snap: u64,
    ) -> KeyRanges {
        let mut group = vec![first];
        while let Some((next, start, _, next_snap)) = self.pending.front() {
            let last_end = &group.last().expect("non-empty").1;
            if !Arc::ptr_eq(next, region) || *next_snap != snap || start <= last_end {
                break;
            }
            let (_, start, end, _) = self.pending.pop_front().expect("peeked");
            group.push((start, end));
        }
        group.into()
    }

    /// Drains every remaining entry into one vector.
    pub fn collect_entries(mut self) -> Result<Vec<KvEntry>> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch()? {
            out.extend(batch);
        }
        Ok(out)
    }
}

impl Drop for ScanStream {
    fn drop(&mut self) {
        if let (Some(started), false) = (self.started, self.exhausted) {
            self.metrics.record_scan_early_termination();
            self.metrics.record_scan_latency(started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(key: &str, value: Option<&str>) -> BlockEntry {
        BlockEntry {
            key: key.as_bytes().to_vec(),
            value: value.map(|v| v.as_bytes().to_vec()),
        }
    }

    /// A merge over in-memory sources, newest first.
    fn merge(sources: Vec<Vec<BlockEntry>>) -> MergeStream {
        MergeStream::new(sources.into_iter().map(ScanSource::mem).collect(), None)
    }

    fn versions(mut m: MergeStream) -> Vec<BlockEntry> {
        let mut out = Vec::new();
        while let Some(entry) = m.next_version().unwrap() {
            out.push(entry);
        }
        out
    }

    #[test]
    fn newest_version_wins() {
        let newest = vec![e("a", Some("new")), e("c", Some("c1"))];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        let merged = merge(vec![newest, oldest]).collect_live().unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].value, b"new");
        assert_eq!(merged[1].key, b"b");
        assert_eq!(merged[2].key, b"c");
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let newest = vec![e("a", None)];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        let merged = merge(vec![newest, oldest]).collect_live().unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].key, b"b");
    }

    #[test]
    fn tombstones_kept_by_next_version() {
        let newest = vec![e("a", None), e("c", Some("c1"))];
        let middle = vec![e("a", Some("mid")), e("b", None)];
        let oldest = vec![e("a", Some("old")), e("b", Some("b0"))];
        assert_eq!(
            versions(merge(vec![newest, middle, oldest])),
            vec![e("a", None), e("b", None), e("c", Some("c1"))]
        );
    }

    #[test]
    fn three_way_interleave_stays_sorted() {
        let s0 = vec![e("b", Some("0"))];
        let s1 = vec![e("a", Some("1")), e("d", Some("1"))];
        let s2 = vec![e("c", Some("2")), e("e", Some("2"))];
        let keys: Vec<Vec<u8>> = merge(vec![s0, s1, s2])
            .collect_live()
            .unwrap()
            .into_iter()
            .map(|x| x.key)
            .collect();
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec()
            ]
        );
    }

    #[test]
    fn empty_sources() {
        assert!(merge(vec![]).collect_live().unwrap().is_empty());
        assert!(merge(vec![vec![], vec![]])
            .collect_live()
            .unwrap()
            .is_empty());
        assert!(versions(merge(vec![vec![], vec![]])).is_empty());
    }

    #[test]
    fn live_bytes_are_charged_to_the_region_on_drop() {
        let traffic = Arc::new(RegionTraffic::default());
        let sources = vec![
            ScanSource::mem(vec![e("a", Some("12")), e("b", None)]),
            ScanSource::mem(vec![e("b", Some("dead")), e("c", Some("3"))]),
        ];
        let mut m = MergeStream::new(sources, Some(traffic.clone()));
        assert_eq!(m.next_live().unwrap().unwrap().key, b"a");
        assert_eq!(traffic.snapshot().bytes_read, 0, "charged once, on drop");
        assert_eq!(m.next_live().unwrap().unwrap().key, b"c");
        drop(m);
        // "a"+"12" and "c"+"3": the shadowed and deleted "b" cost nothing.
        assert_eq!(traffic.snapshot().bytes_read, 5);
    }
}
