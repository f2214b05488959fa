//! SSTable data blocks.
//!
//! A block is a few KiB of consecutive entries — the unit of disk IO and
//! of checksum protection. Entries carry a tombstone flag so deletes
//! shadow older SSTables until compaction.
//!
//! Two formats coexist:
//!
//! **V1** (legacy, still readable): length-prefixed full keys, linear
//! scan only.
//!
//! ```text
//! entry := klen(varint) key vflag(varint) [value]
//! ```
//!
//! **V2** (written by every current writer): key prefix compression with
//! restart points. Each entry stores only the suffix that differs from
//! the previous key; every `RESTART_INTERVAL` entries a *restart point*
//! stores the full key, and a trailer lists the restart offsets so a
//! seek binary-searches the restarts and decodes at most one interval.
//!
//! ```text
//! entry   := shared(varint) unshared(varint) vflag(varint) key_suffix [value]
//! trailer := restart_offset(u32 LE)* restart_count(u32 LE)
//! ```
//!
//! In both formats `vflag = 0` marks a tombstone and
//! `vflag = len(value)+1` a live value.

use std::sync::Arc;

/// Target on-disk block size in bytes (entries never split: a block can
/// exceed this by one oversized entry).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// V2 restart-point spacing: one full key every this many entries. Seeks
/// decode at most `RESTART_INTERVAL - 1` entries after the binary search.
pub const RESTART_INTERVAL: usize = 16;

/// Which on-disk encoding a block (or a whole SSTable) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockFormat {
    /// Length-prefixed full keys, linear scans.
    V1,
    /// Prefix-compressed keys with restart-point binary search.
    #[default]
    V2,
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// One decoded entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The key bytes.
    pub key: Vec<u8>,
    /// `None` marks a tombstone (deleted key).
    pub value: Option<Vec<u8>>,
}

/// Accumulates entries into an encoded block.
#[derive(Debug)]
pub struct BlockBuilder {
    format: BlockFormat,
    buf: Vec<u8>,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    restarts: Vec<u32>,
    since_restart: usize,
    count: usize,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new(BlockFormat::V2)
    }
}

impl BlockBuilder {
    /// Empty builder emitting the given format.
    pub fn new(format: BlockFormat) -> Self {
        BlockBuilder {
            format,
            buf: Vec::new(),
            first_key: None,
            last_key: Vec::new(),
            restarts: Vec::new(),
            since_restart: 0,
            count: 0,
        }
    }

    /// Appends an entry. Keys must arrive in ascending order (enforced by
    /// the SSTable builder).
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        match self.format {
            BlockFormat::V1 => {
                write_varint(&mut self.buf, key.len() as u64);
                self.buf.extend_from_slice(key);
                match value {
                    None => write_varint(&mut self.buf, 0),
                    Some(v) => {
                        write_varint(&mut self.buf, v.len() as u64 + 1);
                        self.buf.extend_from_slice(v);
                    }
                }
            }
            BlockFormat::V2 => {
                let shared = if self.since_restart == 0 || self.since_restart >= RESTART_INTERVAL {
                    self.restarts.push(self.buf.len() as u32);
                    self.since_restart = 0;
                    0
                } else {
                    shared_prefix_len(&self.last_key, key)
                };
                self.since_restart += 1;
                write_varint(&mut self.buf, shared as u64);
                write_varint(&mut self.buf, (key.len() - shared) as u64);
                match value {
                    None => write_varint(&mut self.buf, 0),
                    Some(v) => write_varint(&mut self.buf, v.len() as u64 + 1),
                }
                self.buf.extend_from_slice(&key[shared..]);
                if let Some(v) = value {
                    self.buf.extend_from_slice(v);
                }
            }
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
    }

    /// Current encoded size (V2: entry bytes plus the trailer the block
    /// will carry when finished).
    pub fn size(&self) -> usize {
        match self.format {
            BlockFormat::V1 => self.buf.len(),
            BlockFormat::V2 => self.buf.len() + 4 * self.restarts.len() + 4,
        }
    }

    /// Number of entries added.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// First key in the block (insertion order = ascending).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.first_key.as_deref()
    }

    /// Consumes the builder, returning the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if let BlockFormat::V2 = self.format {
            for r in &self.restarts {
                self.buf.extend_from_slice(&r.to_le_bytes());
            }
            self.buf
                .extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        }
        self.buf
    }
}

/// A decoded (or decodable) block. The bytes are shared, so a block
/// served from the block cache is a reference-count bump, not a copy.
#[derive(Debug, Clone)]
pub struct Block {
    data: Arc<Vec<u8>>,
    format: BlockFormat,
    /// V2: byte offset where entry data ends and the restart array
    /// begins; V1: `data.len()`.
    entries_end: usize,
    /// V2 restart count (0 for V1).
    restart_count: usize,
}

impl Block {
    /// Wraps raw block bytes of the given format. For V2 the restart
    /// trailer is parsed (and bounds-checked) up front; malformed
    /// trailers yield a block that fails [`Block::validate`].
    pub fn new(data: Vec<u8>, format: BlockFormat) -> Self {
        Self::shared(Arc::new(data), format)
    }

    /// [`Block::new`] over bytes shared with the block cache.
    pub fn shared(data: Arc<Vec<u8>>, format: BlockFormat) -> Self {
        let (entries_end, restart_count) = match format {
            BlockFormat::V1 => (data.len(), 0),
            BlockFormat::V2 => parse_trailer(&data).unwrap_or((usize::MAX, 0)),
        };
        Block {
            data,
            format,
            entries_end,
            restart_count,
        }
    }

    /// Iterates entries in key order. Corrupt framing ends iteration with
    /// a `None` from the iterator and is surfaced by [`Block::validate`].
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            buf: &self.data,
            pos: if self.entries_end == usize::MAX { 1 } else { 0 },
            end: if self.entries_end == usize::MAX {
                0
            } else {
                self.entries_end
            },
            format: self.format,
            key: Vec::new(),
            pending: None,
            end_key: None,
            past_end_key: false,
        }
    }

    /// An iterator positioned at the first entry with `key >= target`.
    ///
    /// V2 blocks binary-search the restart array (full keys live at
    /// restart points) and decode at most one restart interval; V1 blocks
    /// fall back to a linear scan.
    pub fn seek_iter(&self, target: &[u8]) -> BlockIter<'_> {
        self.seek_from(BlockCursor::default(), target)
    }

    /// [`Block::seek_iter`] for a `target` at or past where an earlier
    /// iterator over this block stopped (`cursor`, from
    /// `BlockIter::into_cursor`): decoding resumes at the cursor
    /// instead of the restart point when the cursor is further on, so
    /// ascending seeks walk each entry of the block about once.
    pub fn seek_from(&self, cursor: BlockCursor, target: &[u8]) -> BlockIter<'_> {
        let mut it = self.iter();
        let mut restart = 0;
        if self.format == BlockFormat::V2 && self.restart_count > 0 {
            // Largest restart whose key <= target (binary search); start
            // decoding there. If even restart 0 is > target the block
            // start is already the answer.
            let (mut lo, mut hi) = (0usize, self.restart_count);
            // Invariant: restart keys before `lo` are <= target (or lo==0),
            // restart keys at/after `hi` are > target.
            while lo < hi {
                let mid = (lo + hi) / 2;
                match self.restart_key(mid) {
                    Some(k) if k <= target => lo = mid + 1,
                    Some(_) => hi = mid,
                    None => {
                        // Corrupt restart offset: poison and bail.
                        it.pos = it.end + 1;
                        return it;
                    }
                }
            }
            if lo > 0 {
                restart = self.restart_offset(lo - 1).unwrap_or(0);
            }
        }
        if cursor.pos > restart && cursor.pos <= it.end {
            // Resume: the cursor's entry (pending or last returned) is
            // the prefix state for whatever follows it.
            (it.pos, it.key, it.pending) = (cursor.pos, cursor.key, cursor.pending);
            match it.pending {
                Some(_) if it.key.as_slice() >= target => return it,
                Some(vflag) => {
                    it.pending = None;
                    if it.skip_value(vflag).is_none() {
                        return it;
                    }
                }
                None => {}
            }
        } else {
            it.pos = it.pos.max(restart);
        }
        // Linear within the interval (V2) or from the start (V1),
        // stepping over values: the entry the seek lands on stays
        // pending, its value copied out only if the caller takes it.
        while it.pos < it.end {
            let Some(vflag) = it.next_key() else { break };
            if it.key.as_slice() >= target {
                it.pending = Some(vflag);
                break;
            }
            if it.skip_value(vflag).is_none() {
                break;
            }
        }
        it
    }

    fn restart_offset(&self, i: usize) -> Option<usize> {
        let base = self.entries_end.checked_add(4 * i)?;
        let bytes = self.data.get(base..base + 4)?;
        let off = u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
        (off < self.entries_end).then_some(off)
    }

    /// Decodes the full key stored at restart point `i` (restart entries
    /// always have `shared == 0`).
    fn restart_key(&self, i: usize) -> Option<&[u8]> {
        let mut pos = self.restart_offset(i)?;
        let buf = &self.data[..self.entries_end];
        let shared = read_varint(buf, &mut pos)?;
        if shared != 0 {
            return None;
        }
        let unshared = read_varint(buf, &mut pos)? as usize;
        read_varint(buf, &mut pos)?; // vflag, skipped
        buf.get(pos..pos.checked_add(unshared)?)
    }

    /// Checks that the whole block parses.
    pub fn validate(&self) -> bool {
        if self.format == BlockFormat::V2 && self.entries_end == usize::MAX {
            return false;
        }
        let mut it = self.iter();
        let mut n = 0usize;
        for _ in it.by_ref() {
            n += 1;
        }
        if it.pos != it.end {
            return false;
        }
        if self.format == BlockFormat::V2 {
            // Every restart offset must point at a decodable full key and
            // the restart count must cover the entries present.
            if n > 0 && self.restart_count == 0 {
                return false;
            }
            for i in 0..self.restart_count {
                if self.restart_key(i).is_none() {
                    return false;
                }
            }
        }
        true
    }

    /// Raw size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// The block's bytes, shared (for the block cache).
    pub fn shared_bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.data)
    }
}

/// Parses the V2 trailer, returning `(entries_end, restart_count)`.
fn parse_trailer(data: &[u8]) -> Option<(usize, usize)> {
    if data.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap()) as usize;
    let trailer = count.checked_mul(4)?.checked_add(4)?;
    if trailer > data.len() {
        return None;
    }
    Some((data.len() - trailer, count))
}

/// Where a [`BlockIter`] stopped inside its block — position, prefix
/// state and any entry decoded but not yet returned — so a later seek in
/// the same block can resume there ([`Block::seek_from`]).
#[derive(Debug, Default)]
pub struct BlockCursor {
    pos: usize,
    key: Vec<u8>,
    pending: Option<u64>,
}

/// Streaming decoder over a block's entries.
#[derive(Debug)]
pub struct BlockIter<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
    format: BlockFormat,
    /// The current entry's full key (V2: also the prefix state).
    key: Vec<u8>,
    /// Set by [`Block::seek_iter`]: the value flag of the entry it
    /// landed on, whose key is in `key` and whose value starts at `pos`.
    pending: Option<u64>,
    /// Set by [`BlockIter::until`]: iteration ends at the first key
    /// greater than this.
    end_key: Option<&'a [u8]>,
    /// Whether iteration ended at `end_key` rather than the block end.
    past_end_key: bool,
}

impl<'a> BlockIter<'a> {
    fn poison(&mut self) {
        self.pos = self.end + 1; // validate() fails
    }

    /// Ends the iteration at the first key greater than `end`, without
    /// copying that entry's value out (range scans stop there).
    pub fn until(mut self, end: &'a [u8]) -> Self {
        self.end_key = Some(end);
        self
    }

    /// Whether the iteration stopped at the [`BlockIter::until`] bound —
    /// the range ends inside this block — rather than at the block end.
    pub fn past_end_key(&self) -> bool {
        self.past_end_key
    }

    /// Whether `key` lies past the [`BlockIter::until`] bound.
    fn past(&self, key: &[u8]) -> bool {
        self.end_key.is_some_and(|end| key > end)
    }

    /// Ends the iteration at the [`BlockIter::until`] bound. The entry
    /// past it stays pending, so a cursor taken here resumes on it.
    fn stop(&mut self, vflag: u64) -> Option<BlockEntry> {
        self.past_end_key = true;
        self.pending = Some(vflag);
        None
    }

    /// Where this iterator stopped, for a later [`Block::seek_from`] on
    /// the same block.
    pub fn into_cursor(self) -> BlockCursor {
        BlockCursor {
            pos: self.pos,
            key: self.key,
            pending: self.pending,
        }
    }

    /// Decodes the next entry's header and key into `self.key`, leaving
    /// `pos` at its value; returns the value flag.
    fn next_key(&mut self) -> Option<u64> {
        let entries = &self.buf[..self.end];
        // V1 stores the value flag after the key, V2 before it.
        let (shared, unshared, vflag) = match self.format {
            BlockFormat::V1 => (0, read_varint(entries, &mut self.pos)? as usize, None),
            BlockFormat::V2 => {
                let shared = read_varint(entries, &mut self.pos)? as usize;
                let unshared = read_varint(entries, &mut self.pos)? as usize;
                let vflag = read_varint(entries, &mut self.pos)?;
                (shared, unshared, Some(vflag))
            }
        };
        if shared > self.key.len() {
            self.poison();
            return None;
        }
        let kend = self.pos.checked_add(unshared)?;
        if kend > self.end {
            self.poison();
            return None;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&entries[self.pos..kend]);
        self.pos = kend;
        match vflag {
            Some(vflag) => Some(vflag),
            None => read_varint(entries, &mut self.pos),
        }
    }

    /// The end of the value `vflag` announces at `pos`, bounds-checked.
    fn value_end(&mut self, vflag: u64) -> Option<usize> {
        let vend = self.pos.checked_add(vflag.saturating_sub(1) as usize)?;
        if vend > self.end {
            self.poison();
            return None;
        }
        Some(vend)
    }

    /// Copies out the value at `pos` (`None` for a tombstone).
    fn read_value(&mut self, vflag: u64) -> Option<Option<Vec<u8>>> {
        let vend = self.value_end(vflag)?;
        let v = (vflag != 0).then(|| self.buf[self.pos..vend].to_vec());
        self.pos = vend;
        Some(v)
    }

    /// Steps over the value at `pos` without copying it.
    fn skip_value(&mut self, vflag: u64) -> Option<()> {
        self.pos = self.value_end(vflag)?;
        Some(())
    }
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = BlockEntry;

    fn next(&mut self) -> Option<BlockEntry> {
        let vflag = match self.pending.take() {
            Some(vflag) => vflag,
            None if self.pos >= self.end => return None,
            None => self.next_key()?,
        };
        if self.past(&self.key) {
            return self.stop(vflag);
        }
        let value = self.read_value(vflag)?;
        Some(BlockEntry {
            key: self.key.clone(),
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(format: BlockFormat, entries: &[(&[u8], Option<&[u8]>)]) -> Block {
        let mut b = BlockBuilder::new(format);
        for (k, v) in entries {
            b.add(k, *v);
        }
        Block::new(b.finish(), format)
    }

    #[test]
    fn until_stops_at_the_first_key_past_the_bound() {
        for format in [BlockFormat::V1, BlockFormat::V2] {
            let keys: Vec<Vec<u8>> = (0..40u32)
                .map(|i| format!("k{i:03}").into_bytes())
                .collect();
            let mut b = BlockBuilder::new(format);
            for k in &keys {
                b.add(k, Some(b"v"));
            }
            let block = Block::new(b.finish(), format);
            // Bound mid-block: stops there, seeked or not.
            let mut it = block.iter().until(b"k017");
            let got: Vec<Vec<u8>> = it.by_ref().map(|e| e.key).collect();
            assert_eq!(got, keys[..18], "{format:?}");
            assert!(it.past_end_key());
            let mut it = block.seek_iter(b"k010").until(b"k017x");
            let got: Vec<Vec<u8>> = it.by_ref().map(|e| e.key).collect();
            assert_eq!(got, keys[10..18], "{format:?}");
            assert!(it.past_end_key());
            // A seek that lands past the bound yields nothing.
            let mut it = block.seek_iter(b"k020").until(b"k019");
            assert!(it.next().is_none());
            assert!(it.past_end_key());
            // Bound past the block: the whole block, and no stop.
            let mut it = block.iter().until(b"k999");
            assert_eq!(it.by_ref().count(), 40);
            assert!(!it.past_end_key());
        }
    }

    #[test]
    fn roundtrip_entries_with_tombstones() {
        for format in [BlockFormat::V1, BlockFormat::V2] {
            let block = roundtrip(
                format,
                &[(b"a", Some(b"1")), (b"b", None), (b"c", Some(b""))],
            );
            let entries: Vec<_> = block.iter().collect();
            assert_eq!(entries.len(), 3, "{format:?}");
            assert_eq!(entries[0].value.as_deref(), Some(&b"1"[..]));
            assert_eq!(entries[1].value, None);
            assert_eq!(entries[2].value.as_deref(), Some(&b""[..]));
            assert!(block.validate(), "{format:?}");
        }
    }

    #[test]
    fn corrupt_block_fails_validation() {
        for format in [BlockFormat::V1, BlockFormat::V2] {
            let mut b = BlockBuilder::new(format);
            b.add(b"key-aaaa", Some(b"value"));
            b.add(b"key-bbbb", Some(b"value"));
            let mut bytes = b.finish();
            bytes.truncate(bytes.len() - 2);
            assert!(!Block::new(bytes, format).validate(), "{format:?}");
        }
    }

    #[test]
    fn size_tracks_content() {
        let mut b = BlockBuilder::new(BlockFormat::V1);
        assert!(b.is_empty());
        b.add(b"0123456789", Some(&[0u8; 100]));
        assert!(b.size() > 110);
    }

    #[test]
    fn v2_prefix_compression_shrinks_shared_keys() {
        let keys: Vec<String> = (0..200)
            .map(|i| format!("traj/0001/point/{i:06}"))
            .collect();
        let mut v1 = BlockBuilder::new(BlockFormat::V1);
        let mut v2 = BlockBuilder::new(BlockFormat::V2);
        for k in &keys {
            v1.add(k.as_bytes(), Some(b"v"));
            v2.add(k.as_bytes(), Some(b"v"));
        }
        let (s1, s2) = (v1.size(), v2.size());
        assert!(
            s2 * 10 < s1 * 7,
            "prefix compression should save >30%: v1={s1} v2={s2}"
        );
        // And the compressed form still decodes identically.
        let block = Block::new(v2.finish(), BlockFormat::V2);
        let decoded: Vec<_> = block.iter().map(|e| e.key).collect();
        assert_eq!(decoded.len(), keys.len());
        for (d, k) in decoded.iter().zip(&keys) {
            assert_eq!(d, k.as_bytes());
        }
        assert!(block.validate());
    }

    #[test]
    fn v2_empty_block() {
        let b = BlockBuilder::new(BlockFormat::V2);
        assert!(b.is_empty());
        let block = Block::new(b.finish(), BlockFormat::V2);
        assert_eq!(block.iter().count(), 0);
        assert!(block.validate());
        assert!(block.seek_iter(b"anything").next().is_none());
    }

    #[test]
    fn v2_single_entry_block() {
        let block = roundtrip(BlockFormat::V2, &[(b"only", Some(b"v"))]);
        assert!(block.validate());
        assert_eq!(block.iter().count(), 1);
        assert_eq!(block.seek_iter(b"a").next().unwrap().key, b"only");
        assert_eq!(block.seek_iter(b"only").next().unwrap().key, b"only");
        assert!(block.seek_iter(b"z").next().is_none());
    }

    #[test]
    fn v2_duplicate_prefix_entries() {
        // Keys where one is a strict prefix of the next (shared == full
        // shorter key) must round-trip: the suffix can be empty-adjacent.
        let block = roundtrip(
            BlockFormat::V2,
            &[
                (b"a", Some(b"1")),
                (b"aa", Some(b"2")),
                (b"aaa", None),
                (b"aaab", Some(b"3")),
                (b"ab", Some(b"4")),
            ],
        );
        assert!(block.validate());
        let keys: Vec<_> = block.iter().map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![
                b"a".to_vec(),
                b"aa".to_vec(),
                b"aaa".to_vec(),
                b"aaab".to_vec(),
                b"ab".to_vec()
            ]
        );
        assert_eq!(block.seek_iter(b"aaa").next().unwrap().key, b"aaa");
        assert_eq!(block.seek_iter(b"aab").next().unwrap().key, b"ab");
    }

    #[test]
    fn v2_seek_hits_every_position_across_restarts() {
        // Enough entries to span several restart intervals; seeking to
        // every key, a predecessor, and a successor must all agree with
        // the linear scan.
        let keys: Vec<Vec<u8>> = (0..100u32)
            .map(|i| format!("key-{:06}", i * 3).into_bytes())
            .collect();
        let mut b = BlockBuilder::new(BlockFormat::V2);
        for k in &keys {
            b.add(k, Some(b"v"));
        }
        let block = Block::new(b.finish(), BlockFormat::V2);
        assert!(block.validate());
        for (i, k) in keys.iter().enumerate() {
            // Exact hit.
            assert_eq!(&block.seek_iter(k).next().unwrap().key, k, "exact {i}");
            // Between keys: key-{3i+1} seeks to the next entry.
            let between = format!("key-{:06}", i as u32 * 3 + 1).into_bytes();
            let next = block.seek_iter(&between).next();
            match keys.get(i + 1) {
                Some(nk) => assert_eq!(&next.unwrap().key, nk, "between {i}"),
                None => assert!(next.is_none(), "past end"),
            }
        }
        // Before the first key.
        assert_eq!(block.seek_iter(b"").next().unwrap().key, keys[0]);
        // Iterating from a seek yields the ordered tail.
        let tail: Vec<_> = block.seek_iter(&keys[50]).map(|e| e.key).collect();
        assert_eq!(tail.len(), 50);
        assert_eq!(tail[0], keys[50]);
        assert_eq!(tail[49], keys[99]);
    }

    #[test]
    fn v1_seek_iter_linear_fallback() {
        let block = roundtrip(
            BlockFormat::V1,
            &[(b"a", Some(b"1")), (b"c", Some(b"2")), (b"e", Some(b"3"))],
        );
        assert_eq!(block.seek_iter(b"b").next().unwrap().key, b"c");
        assert_eq!(block.seek_iter(b"c").next().unwrap().key, b"c");
        assert!(block.seek_iter(b"f").next().is_none());
    }

    #[test]
    fn v2_corrupt_restart_trailer_fails_validation() {
        let mut b = BlockBuilder::new(BlockFormat::V2);
        for i in 0..40u32 {
            b.add(format!("k{i:04}").as_bytes(), Some(b"v"));
        }
        let mut bytes = b.finish();
        // Claim more restarts than the block holds.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!Block::new(bytes, BlockFormat::V2).validate());
    }
}
