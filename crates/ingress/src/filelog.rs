//! Segmented file-log transport: durable, replayable, resumable.
//!
//! On-disk layout under `<root>/<stream-key>/`:
//!
//! ```text
//! shard-<n>/seg-<base:016x>.log   records; <base> = seq of the first one
//! shard-<n>/seg-<base:016x>.idx   one [u64 seq][u64 pos] pair per record
//! groups/<group>/shard-<n>.off    consumer-group offset: u64 next_seq
//! ```
//!
//! A record is `[u32 len][u32 crc][u64 seq][payload]` (little-endian,
//! CRC32 over the payload). Sequence numbers are dense per shard, so a
//! segment's base name tells exactly which records it holds and the
//! offset index is addressable by subtraction — entry `seq - base` at
//! byte `16 * (seq - base)`.
//!
//! Durability contract (fsync-on-ack): [`FileLogSink::send`] buffers;
//! [`FileLogSink::flush`] fsyncs log + index and only then acks the
//! pending [`Receipt`]s. A crash between send and flush loses at most
//! the unacked tail, and the producer-side reopen truncates any torn
//! record so the log always ends on a record boundary. Readers treat a
//! torn or partially flushed tail as "no data yet", never as an error.
//!
//! Consumer offsets are per *group*: `commit(shard, next_seq)` writes
//! the offset file via temp + rename + fsync, and
//! [`FileLogSource::open_resume`] seeks every shard to its committed
//! offset — the restart-and-resume half of the exactly-once story (the
//! dedup half, skipping re-emits below the egress watermark, belongs to
//! the consumer; see DESIGN.md §"Ingress/egress").

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::{
    GroupMembership, IngressError, Message, Receipt, SeqPos, SequenceNo, ShardId, Sink, Source,
    StreamKey,
};

/// Byte size a segment may reach before the next record starts a new one.
const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Sends buffered before the sink flushes on its own.
const DEFAULT_MAX_IN_FLIGHT: usize = 64;

const REC_HEADER: usize = 4 + 4 + 8;
const IDX_ENTRY: usize = 8 + 8;

/// Largest accepted record payload. A header claiming more is a torn or
/// corrupt tail, never a real record — checked *before* any allocation
/// so garbage bytes cannot demand gigabytes (mirrors `tcp::MAX_FRAME`).
const MAX_RECORD: usize = 64 << 20;

fn shard_dir(stream_dir: &Path, shard: ShardId) -> PathBuf {
    stream_dir.join(format!("shard-{}", shard.0))
}

fn seg_path(dir: &Path, base: SequenceNo, ext: &str) -> PathBuf {
    dir.join(format!("seg-{base:016x}.{ext}"))
}

/// Segment bases present in `dir`, sorted ascending.
fn list_segments(dir: &Path) -> Result<Vec<SequenceNo>, IngressError> {
    let mut bases = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            if let Ok(base) = SequenceNo::from_str_radix(hex, 16) {
                bases.push(base);
            }
        }
    }
    bases.sort_unstable();
    Ok(bases)
}

/// Open the idx of segment `base`, one of `bases` (as listed). A missing
/// idx is `Ok(None)` — retry later — only while the segment is the newest
/// and its log holds no complete record yet: a segment a writer is just
/// creating. A missing idx next to records (a crash, or a directory from
/// a log-first writer) is an error, so a reader never silently stops
/// short of records it cannot locate.
fn open_idx(
    dir: &Path,
    base: SequenceNo,
    bases: &[SequenceNo],
) -> Result<Option<File>, IngressError> {
    match File::open(seg_path(dir, base, "idx")) {
        Ok(f) => Ok(Some(f)),
        Err(e)
            if e.kind() == std::io::ErrorKind::NotFound
                && bases.last() == Some(&base)
                && fs::metadata(seg_path(dir, base, "log"))
                    .map_or(true, |m| m.len() < REC_HEADER as u64) =>
        {
            Ok(None)
        }
        Err(e) => Err(e.into()),
    }
}

/// Scan one segment from the front, validating records. Returns
/// `(next_seq, good_bytes, positions)`: the sequence after the last
/// intact record, the byte length of the intact prefix, and the byte
/// offset of each intact record — everything a correct offset index
/// must contain, so recovery can rebuild one.
fn scan_segment(dir: &Path, base: SequenceNo) -> Result<(SequenceNo, u64, Vec<u64>), IngressError> {
    let mut f = BufReader::new(File::open(seg_path(dir, base, "log"))?);
    let mut next = base;
    let mut good = 0u64;
    let mut positions = Vec::new();
    let mut payload = Vec::new();
    loop {
        let mut head = [0u8; REC_HEADER];
        match f.read_exact(&mut head) {
            Ok(()) => {}
            Err(_) => break, // clean EOF or torn header: prefix ends here
        }
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
        if len > MAX_RECORD {
            break; // garbage header: don't even allocate for it
        }
        payload.clear();
        payload.resize(len, 0);
        if f.read_exact(&mut payload).is_err() {
            break; // torn payload
        }
        if seq != next || crate::crc32(&payload) != crc {
            break; // wrong seq chain or corrupt payload: stop trusting
        }
        positions.push(good);
        next += 1;
        good += (REC_HEADER + len) as u64;
    }
    Ok((next, good, positions))
}

/// The durable watermark of one shard directory: `(tail_base, next_seq)`
/// of the newest segment, or `None` when the shard has no segments.
fn shard_tail(dir: &Path) -> Result<Option<(SequenceNo, SequenceNo)>, IngressError> {
    let bases = list_segments(dir)?;
    let Some(&base) = bases.last() else {
        return Ok(None);
    };
    let (next, _, _) = scan_segment(dir, base)?;
    Ok(Some((base, next)))
}

// ---------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------

struct ShardWriter {
    dir: PathBuf,
    log: BufWriter<File>,
    idx: BufWriter<File>,
    base: SequenceNo,
    next_seq: SequenceNo,
    /// Bytes in the current segment (intact prefix at open; grows per send).
    seg_bytes: u64,
    dirty: bool,
}

impl ShardWriter {
    fn open(dir: PathBuf) -> Result<ShardWriter, IngressError> {
        fs::create_dir_all(&dir)?;
        let (base, next_seq) = shard_tail(&dir)?.unwrap_or_default();
        let (good, positions) = if next_seq > base {
            let (_, good, positions) = scan_segment(&dir, base)?;
            (good, positions)
        } else {
            (0, Vec::new())
        };
        let log_path = seg_path(&dir, base, "log");
        let idx_path = seg_path(&dir, base, "idx");
        // The idx is created before the log: readers discover segments by
        // their `.log`, so a listed segment always has its idx.
        //
        // The log and idx can be torn *independently* (the log buffer
        // flushes to the OS far more often than the 16-byte-per-record
        // idx buffer, and a crash can land between the two syncs), so
        // the idx is trusted only as far as it agrees with the log scan.
        // Everything past that prefix — including entries the crash
        // never wrote — is rebuilt from the scanned record positions;
        // zero-extending here would plant seq=0/pos=0 entries that later
        // seeks read as hard corruption.
        let idx = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&idx_path)?;
        // `truncate(false)`: keep the intact prefix; the explicit
        // `set_len` below trims exactly the torn tail.
        let log = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&log_path)?;
        log.set_len(good)?;
        let mut valid = 0usize;
        {
            let mut rdr = BufReader::new(&idx);
            let mut e = [0u8; IDX_ENTRY];
            while valid < positions.len() {
                if rdr.read_exact(&mut e).is_err() {
                    break;
                }
                let seq = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
                let pos = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
                if seq != base + valid as u64 || pos != positions[valid] {
                    break;
                }
                valid += 1;
            }
        }
        idx.set_len((valid * IDX_ENTRY) as u64)?;
        let mut idx = BufWriter::new(idx);
        idx.seek(SeekFrom::Start((valid * IDX_ENTRY) as u64))?;
        for (i, &pos) in positions.iter().enumerate().skip(valid) {
            idx.write_all(&(base + i as u64).to_le_bytes())?;
            idx.write_all(&pos.to_le_bytes())?;
        }
        if valid < positions.len() {
            idx.flush()?;
            idx.get_ref().sync_data()?;
        }
        let mut log = BufWriter::new(log);
        log.seek(SeekFrom::End(0))?;
        Ok(ShardWriter {
            dir,
            log,
            idx,
            base,
            next_seq,
            seg_bytes: good,
            dirty: false,
        })
    }

    fn roll(&mut self) -> Result<(), IngressError> {
        self.sync()?;
        self.base = self.next_seq;
        // Idx first, as in `open`: the `.log` is what makes the segment
        // visible to readers.
        let idx = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(seg_path(&self.dir, self.base, "idx"))?;
        let log = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(seg_path(&self.dir, self.base, "log"))?;
        self.log = BufWriter::new(log);
        self.idx = BufWriter::new(idx);
        self.seg_bytes = 0;
        Ok(())
    }

    fn append(&mut self, payload: &[u8], segment_bytes: u64) -> Result<SequenceNo, IngressError> {
        if self.seg_bytes >= segment_bytes {
            self.roll()?;
        }
        let seq = self.next_seq;
        let pos = self.seg_bytes;
        self.log.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.log.write_all(&crate::crc32(payload).to_le_bytes())?;
        self.log.write_all(&seq.to_le_bytes())?;
        self.log.write_all(payload)?;
        self.idx.write_all(&seq.to_le_bytes())?;
        self.idx.write_all(&pos.to_le_bytes())?;
        self.next_seq += 1;
        self.seg_bytes += (REC_HEADER + payload.len()) as u64;
        self.dirty = true;
        Ok(seq)
    }

    fn sync(&mut self) -> Result<(), IngressError> {
        if self.dirty {
            self.log.flush()?;
            self.log.get_ref().sync_data()?;
            self.idx.flush()?;
            self.idx.get_ref().sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// Producer into a file-logged stream: batched sends, fsync-on-ack.
pub struct FileLogSink {
    key: StreamKey,
    writers: Vec<ShardWriter>,
    pending: Vec<Receipt>,
    segment_bytes: u64,
    max_in_flight: usize,
}

impl FileLogSink {
    /// Open (or create) the stream under `root` with `shards` shards,
    /// recovering per-shard sequence state and truncating torn tails.
    pub fn open(
        root: impl AsRef<Path>,
        key: &StreamKey,
        shards: u32,
    ) -> Result<FileLogSink, IngressError> {
        let stream_dir = root.as_ref().join(key.as_str());
        let writers = (0..shards)
            .map(|s| ShardWriter::open(shard_dir(&stream_dir, ShardId(s))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FileLogSink {
            key: key.clone(),
            writers,
            pending: Vec::new(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        })
    }

    /// Override the segment roll threshold (bytes). Tiny values make
    /// multi-segment layouts testable.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Override how many sends may be in flight before an automatic
    /// flush.
    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// The sequence the next record sent to `shard` will get.
    pub fn next_seq(&self, shard: ShardId) -> Result<SequenceNo, IngressError> {
        self.writers
            .get(shard.0 as usize)
            .map(|w| w.next_seq)
            .ok_or(IngressError::UnknownShard(shard))
    }
}

impl Sink for FileLogSink {
    fn stream_key(&self) -> &StreamKey {
        &self.key
    }

    fn send(&mut self, shard: ShardId, payload: &[u8]) -> Result<Receipt, IngressError> {
        let w = self
            .writers
            .get_mut(shard.0 as usize)
            .ok_or(IngressError::UnknownShard(shard))?;
        let seq = w.append(payload, self.segment_bytes)?;
        let receipt = Receipt::pending(shard, seq);
        self.pending.push(receipt.clone());
        if self.pending.len() >= self.max_in_flight {
            self.flush()?;
        }
        Ok(receipt)
    }

    fn flush(&mut self) -> Result<(), IngressError> {
        for w in &mut self.writers {
            w.sync()?;
        }
        // Everything buffered is now durable: ack in send order.
        for r in self.pending.drain(..) {
            r.mark_acked();
        }
        Ok(())
    }
}

impl Drop for FileLogSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------
// Consumer-group offsets
// ---------------------------------------------------------------------

/// Durable per-(group, shard) consumer offsets.
struct OffsetStore {
    dir: PathBuf,
}

impl OffsetStore {
    fn open(stream_dir: &Path, group: &str) -> Result<OffsetStore, IngressError> {
        let dir = stream_dir.join("groups").join(group);
        fs::create_dir_all(&dir)?;
        Ok(OffsetStore { dir })
    }

    fn path(&self, shard: ShardId) -> PathBuf {
        self.dir.join(format!("shard-{}.off", shard.0))
    }

    fn load(&self, shard: ShardId) -> Result<Option<SequenceNo>, IngressError> {
        match fs::read(self.path(shard)) {
            Ok(bytes) if bytes.len() == 8 => Ok(Some(u64::from_le_bytes(
                bytes[..8].try_into().expect("8 bytes"),
            ))),
            Ok(_) => Ok(None), // torn offset file: start from the beginning
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn commit(&self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        let tmp = self.dir.join(format!("shard-{}.off.tmp", shard.0));
        let mut f = File::create(&tmp)?;
        f.write_all(&next_seq.to_le_bytes())?;
        f.sync_data()?;
        fs::rename(&tmp, self.path(shard))?;
        Ok(())
    }
}

/// Standalone handle to one consumer group's durable offsets.
///
/// A [`FileLogSource`] opened with [`FileLogSource::open_resume`] owns
/// the same store internally, but the source is usually moved into a
/// pump thread — this handle lets the *consumer* end of the pipeline
/// commit a shard's progress (after its downstream effect is durable)
/// without sharing the source.
pub struct GroupOffsets {
    store: OffsetStore,
}

impl GroupOffsets {
    /// Open (creating directories as needed) the offsets of `group` for
    /// stream `key` under `root`.
    pub fn open(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: &str,
    ) -> Result<GroupOffsets, IngressError> {
        Ok(GroupOffsets {
            store: OffsetStore::open(&root.as_ref().join(key.as_str()), group)?,
        })
    }

    /// The committed next-sequence for `shard` (`None` = never committed).
    pub fn load(&self, shard: ShardId) -> Result<Option<SequenceNo>, IngressError> {
        self.store.load(shard)
    }

    /// Durably record that `shard` is fully consumed below `next_seq`.
    pub fn commit(&self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        self.store.commit(shard, next_seq)
    }
}

// ---------------------------------------------------------------------
// Consumer
// ---------------------------------------------------------------------

struct ShardReader {
    id: ShardId,
    dir: PathBuf,
    next_seq: SequenceNo,
    /// Open segment: `(base, log reader)`. Dropped on seek / roll.
    open: Option<(SequenceNo, BufReader<File>)>,
}

impl ShardReader {
    fn new(id: ShardId, dir: PathBuf, next_seq: SequenceNo) -> ShardReader {
        ShardReader {
            id,
            dir,
            next_seq,
            open: None,
        }
    }

    /// Position a reader at `self.next_seq`, using the offset index.
    /// `Ok(false)` = that record does not exist (yet).
    fn ensure_open(&mut self) -> Result<bool, IngressError> {
        if let Some((base, _)) = &self.open {
            // A roll may have moved the live tail past this segment; the
            // read path handles that by reopening on clean EOF.
            let _ = base;
            return Ok(true);
        }
        let bases = list_segments(&self.dir)?;
        if bases.is_empty() {
            return Ok(false);
        }
        // The segment that would hold next_seq: greatest base <= next_seq
        // (clamped up to the oldest segment for pre-retention seeks).
        let base = match bases.iter().rev().find(|&&b| b <= self.next_seq) {
            Some(&b) => b,
            None => {
                self.next_seq = bases[0];
                bases[0]
            }
        };
        let Some(mut idx) = open_idx(&self.dir, base, &bases)? else {
            return Ok(false);
        };
        let entry = self.next_seq - base;
        if idx.metadata()?.len() < (entry + 1) * IDX_ENTRY as u64 {
            // Not indexed yet: either not written, or the tail segment
            // rolled and next_seq lives in the next one.
            if bases.iter().any(|&b| b > base && b <= self.next_seq) {
                self.open = None;
                // Recurse once via loop: simplest is to retry directly.
                return self.retry_later_segment(&bases);
            }
            return Ok(false);
        }
        idx.seek(SeekFrom::Start(entry * IDX_ENTRY as u64))?;
        let mut e = [0u8; IDX_ENTRY];
        idx.read_exact(&mut e)?;
        let seq = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
        let pos = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
        if seq != self.next_seq {
            return Err(IngressError::Corrupt(format!(
                "index {}: entry {entry} holds seq {seq}, expected {}",
                seg_path(&self.dir, base, "idx").display(),
                self.next_seq
            )));
        }
        let mut log = BufReader::new(File::open(seg_path(&self.dir, base, "log"))?);
        log.seek(SeekFrom::Start(pos))?;
        self.open = Some((base, log));
        Ok(true)
    }

    fn retry_later_segment(&mut self, bases: &[SequenceNo]) -> Result<bool, IngressError> {
        let base = match bases.iter().rev().find(|&&b| b <= self.next_seq) {
            Some(&b) => b,
            None => return Ok(false),
        };
        // Only called when a later segment covers next_seq; open it at
        // the indexed position.
        let Some(mut idx) = open_idx(&self.dir, base, bases)? else {
            return Ok(false);
        };
        let entry = self.next_seq - base;
        if idx.metadata()?.len() < (entry + 1) * IDX_ENTRY as u64 {
            return Ok(false);
        }
        idx.seek(SeekFrom::Start(entry * IDX_ENTRY as u64))?;
        let mut e = [0u8; IDX_ENTRY];
        idx.read_exact(&mut e)?;
        let pos = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
        let mut log = BufReader::new(File::open(seg_path(&self.dir, base, "log"))?);
        log.seek(SeekFrom::Start(pos))?;
        self.open = Some((base, log));
        Ok(true)
    }

    /// Read the record at `next_seq` into a pool buffer. `Ok(None)` =
    /// nothing (durable) there yet.
    fn read_next(&mut self, pool: &fastflow::BufPool<u8>) -> Result<Option<Message>, IngressError> {
        if !self.ensure_open()? {
            return Ok(None);
        }
        let (base, log) = self.open.as_mut().expect("ensure_open established");
        let mut head = [0u8; REC_HEADER];
        match log.read_exact(&mut head) {
            Ok(()) => {}
            Err(_) => {
                // Clean EOF or torn tail. If the writer rolled, the next
                // record lives in a newer segment — reopen there.
                let rolled = list_segments(&self.dir)?
                    .iter()
                    .any(|&b| b > *base && b <= self.next_seq);
                self.open = None;
                if rolled {
                    return self.read_next(pool);
                }
                return Ok(None);
            }
        }
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
        if len > MAX_RECORD {
            // A garbage header could claim ~4 GiB; treat it as a torn
            // tail (the writer-side reopen truncates it) rather than
            // letting corrupt bytes size an allocation.
            self.open = None;
            return Ok(None);
        }
        let mut payload = pool.acquire(len);
        if log.read_exact(&mut payload[..]).is_err() {
            // Torn / partially flushed: rewind by reopening next time.
            self.open = None;
            return Ok(None);
        }
        if seq != self.next_seq || crate::crc32(&payload[..]) != crc {
            self.open = None;
            return Ok(None);
        }
        self.next_seq += 1;
        Ok(Some(Message {
            shard: self.id,
            seq,
            payload,
        }))
    }

    fn seek(&mut self, pos: SeqPos) -> Result<(), IngressError> {
        self.open = None;
        self.next_seq = match pos {
            SeqPos::At(seq) => seq,
            SeqPos::Beginning => list_segments(&self.dir)?.first().copied().unwrap_or(0),
            SeqPos::End => match shard_tail(&self.dir)? {
                Some((_, next)) => next,
                None => 0,
            },
        };
        Ok(())
    }
}

/// Consumer over a file-logged stream: real-time, replay, resumable, or
/// consumer-group load-balanced — all the same type, differing only in
/// how it was opened and whether a [`GroupMembership`] is attached.
pub struct FileLogSource {
    key: StreamKey,
    stream_dir: PathBuf,
    pool: fastflow::BufPool<u8>,
    readers: Vec<ShardReader>,
    offsets: Option<OffsetStore>,
    membership: Option<GroupMembership>,
    generation: u64,
    rr: usize,
}

impl FileLogSource {
    fn discover_shards(stream_dir: &Path) -> Result<Vec<ShardId>, IngressError> {
        let mut shards = Vec::new();
        match fs::read_dir(stream_dir) {
            Ok(entries) => {
                for entry in entries {
                    let name = entry?.file_name();
                    if let Some(n) = name.to_string_lossy().strip_prefix("shard-") {
                        if let Ok(n) = n.parse::<u32>() {
                            shards.push(ShardId(n));
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        shards.sort_unstable();
        Ok(shards)
    }

    fn open_with(
        root: impl AsRef<Path>,
        key: &StreamKey,
        start: SeqPos,
        group: Option<&str>,
        membership: Option<GroupMembership>,
        pool: fastflow::BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        let stream_dir = root.as_ref().join(key.as_str());
        let all = Self::discover_shards(&stream_dir)?;
        let offsets = match group {
            Some(g) => Some(OffsetStore::open(&stream_dir, g)?),
            None => None,
        };
        let assigned: Vec<ShardId> = match &membership {
            Some(m) => m.assigned(&all),
            None => all,
        };
        let mut readers = Vec::new();
        for id in assigned {
            let dir = shard_dir(&stream_dir, id);
            let mut r = ShardReader::new(id, dir, 0);
            match (&offsets, start) {
                (Some(store), _) => match store.load(id)? {
                    Some(next) => r.next_seq = next,
                    None => r.seek(start)?,
                },
                (None, pos) => r.seek(pos)?,
            }
            readers.push(r);
        }
        let generation = membership.as_ref().map_or(0, |m| m.generation());
        Ok(FileLogSource {
            key: key.clone(),
            stream_dir,
            pool,
            readers,
            offsets,
            membership,
            generation,
            rr: 0,
        })
    }

    /// Real-time mode: start at each shard's end, see only new records.
    pub fn open_realtime(
        root: impl AsRef<Path>,
        key: &StreamKey,
        pool: fastflow::BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(root, key, SeqPos::End, None, None, pool)
    }

    /// Replay mode: start at each shard's beginning, no offset storage.
    pub fn open_replay(
        root: impl AsRef<Path>,
        key: &StreamKey,
        pool: fastflow::BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(root, key, SeqPos::Beginning, None, None, pool)
    }

    /// Resumable mode: start each shard at `group`'s committed offset
    /// (beginning when the group has none); `commit` persists offsets.
    pub fn open_resume(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: &str,
        pool: fastflow::BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(root, key, SeqPos::Beginning, Some(group), None, pool)
    }

    /// Consumer-group mode: like `open_resume`, but reading only the
    /// shards `membership` assigns this member; reassignments on
    /// join/leave are picked up at the next `next_batch`.
    pub fn open_group(
        root: impl AsRef<Path>,
        key: &StreamKey,
        group: &str,
        membership: GroupMembership,
        pool: fastflow::BufPool<u8>,
    ) -> Result<FileLogSource, IngressError> {
        Self::open_with(
            root,
            key,
            SeqPos::Beginning,
            Some(group),
            Some(membership),
            pool,
        )
    }

    /// The offset this source's shard cursor currently sits at.
    pub fn position(&self, shard: ShardId) -> Option<SequenceNo> {
        self.readers
            .iter()
            .find(|r| r.id == shard)
            .map(|r| r.next_seq)
    }

    /// The committed offset stored for `shard` (resumable/group modes).
    pub fn committed(&self, shard: ShardId) -> Result<Option<SequenceNo>, IngressError> {
        match &self.offsets {
            Some(store) => store.load(shard),
            None => Ok(None),
        }
    }

    /// Apply a consumer-group generation change: rebuild the reader set
    /// from the current assignment, starting newly acquired shards at
    /// their committed offsets.
    fn rebalance(&mut self) -> Result<(), IngressError> {
        let Some(m) = &self.membership else {
            return Ok(());
        };
        let gen = m.generation();
        if gen == self.generation {
            return Ok(());
        }
        let all = Self::discover_shards(&self.stream_dir)?;
        let assigned = m.assigned(&all);
        self.readers.retain(|r| assigned.contains(&r.id));
        for id in assigned {
            if self.readers.iter().any(|r| r.id == id) {
                continue;
            }
            let dir = shard_dir(&self.stream_dir, id);
            let mut r = ShardReader::new(id, dir, 0);
            match &self.offsets {
                Some(store) => match store.load(id)? {
                    Some(next) => r.next_seq = next,
                    None => r.seek(SeqPos::Beginning)?,
                },
                None => r.seek(SeqPos::Beginning)?,
            }
            self.readers.push(r);
        }
        self.readers.sort_unstable_by_key(|r| r.id);
        self.rr = 0;
        self.generation = gen;
        Ok(())
    }

    /// Pick up shard directories created after this source was opened
    /// (non-group mode — group mode rediscovers through `rebalance`).
    /// A source opened before the producer ever wrote would otherwise
    /// keep an empty reader set forever. Newly found shards start at
    /// their committed offset when one exists, else at the beginning:
    /// every record in a shard born after open is "new" to this reader,
    /// whatever mode it was opened in. Returns true when a shard was
    /// added.
    fn refresh_shards(&mut self) -> Result<bool, IngressError> {
        let mut added = false;
        for id in Self::discover_shards(&self.stream_dir)? {
            if self.readers.iter().any(|r| r.id == id) {
                continue;
            }
            let dir = shard_dir(&self.stream_dir, id);
            let mut r = ShardReader::new(id, dir, 0);
            match &self.offsets {
                Some(store) => match store.load(id)? {
                    Some(next) => r.next_seq = next,
                    None => r.seek(SeqPos::Beginning)?,
                },
                None => r.seek(SeqPos::Beginning)?,
            }
            self.readers.push(r);
            added = true;
        }
        if added {
            self.readers.sort_unstable_by_key(|r| r.id);
            self.rr = 0;
        }
        Ok(added)
    }

    /// One round-robin sweep over the current reader set.
    fn poll_readers(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        if self.readers.is_empty() {
            return Ok(0);
        }
        let mut got = 0;
        let mut dry = 0;
        while got < max && dry < self.readers.len() {
            let i = self.rr % self.readers.len();
            self.rr += 1;
            match self.readers[i].read_next(&self.pool)? {
                Some(msg) => {
                    out.push(msg);
                    got += 1;
                    dry = 0;
                }
                None => dry += 1,
            }
        }
        Ok(got)
    }
}

impl Source for FileLogSource {
    fn stream_key(&self) -> &StreamKey {
        &self.key
    }

    fn assigned_shards(&self) -> Vec<ShardId> {
        self.readers.iter().map(|r| r.id).collect()
    }

    fn next_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, IngressError> {
        self.rebalance()?;
        if max == 0 {
            return Ok(0);
        }
        let mut got = self.poll_readers(out, max)?;
        // An idle sweep is the cheap moment to look for shard
        // directories that did not exist at open (producer started
        // later, or added shards); group mode gets this via rebalance.
        if got == 0 && self.membership.is_none() && self.refresh_shards()? {
            got = self.poll_readers(out, max)?;
        }
        Ok(got)
    }

    fn seek(&mut self, shard: ShardId, pos: SeqPos) -> Result<(), IngressError> {
        // Repositioning restarts the round-robin from shard order, so a
        // rewound replay interleaves exactly like the first pass —
        // replay determinism is part of the contract.
        self.rr = 0;
        self.readers
            .iter_mut()
            .find(|r| r.id == shard)
            .ok_or(IngressError::UnknownShard(shard))?
            .seek(pos)
    }

    fn commit(&mut self, shard: ShardId, next_seq: SequenceNo) -> Result<(), IngressError> {
        match &self.offsets {
            Some(store) => store.commit(shard, next_seq),
            None => Ok(()),
        }
    }
}

/// Read a whole stream back as `shard -> ordered payload list` — the
/// verification helper the kill-and-resume demo and tests use to prove
/// bit-exactness.
pub fn read_all(
    root: impl AsRef<Path>,
    key: &StreamKey,
) -> Result<HashMap<u32, Vec<Vec<u8>>>, IngressError> {
    let pool = fastflow::BufPool::<u8>::new();
    let mut src = FileLogSource::open_replay(root, key, pool)?;
    let mut out = HashMap::new();
    let mut batch = Vec::new();
    loop {
        batch.clear();
        if src.next_batch(&mut batch, 256)? == 0 {
            break;
        }
        for msg in batch.drain(..) {
            let rows: &mut Vec<Vec<u8>> = out.entry(msg.shard.0).or_default();
            if msg.seq as usize != rows.len() {
                return Err(IngressError::Corrupt(format!(
                    "shard {} replay out of order: seq {} at position {}",
                    msg.shard,
                    msg.seq,
                    rows.len()
                )));
            }
            rows.push(msg.payload.to_vec());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetstream_ingress_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn key() -> StreamKey {
        StreamKey::new("t").expect("valid key")
    }

    #[test]
    fn produce_flush_consume_roundtrip() {
        let root = tmpdir("roundtrip");
        let mut sink = FileLogSink::open(&root, &key(), 2).expect("open sink");
        let mut receipts = Vec::new();
        for i in 0..10u32 {
            let r = sink
                .send(ShardId(i % 2), format!("payload-{i}").as_bytes())
                .expect("send");
            receipts.push(r);
        }
        assert!(
            receipts.iter().all(|r| !r.is_acked()),
            "acks wait for flush"
        );
        sink.flush().expect("flush");
        assert!(receipts.iter().all(Receipt::is_acked), "flush acks all");

        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        while src.next_batch(&mut msgs, 64).expect("read") > 0 {}
        assert_eq!(msgs.len(), 10);
        for m in &msgs {
            let text = String::from_utf8(m.payload.to_vec()).expect("utf8");
            let i: u32 = text
                .strip_prefix("payload-")
                .expect("prefix")
                .parse()
                .expect("n");
            assert_eq!(m.shard.0, i % 2);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segments_roll_and_replay_across_the_boundary() {
        let root = tmpdir("roll");
        let mut sink = FileLogSink::open(&root, &key(), 1)
            .expect("open sink")
            .with_segment_bytes(64);
        for i in 0..20u8 {
            sink.send(ShardId(0), &[i; 24]).expect("send");
        }
        sink.flush().expect("flush");
        let dir = shard_dir(&root.join("t"), ShardId(0));
        assert!(
            list_segments(&dir).expect("list").len() > 1,
            "tiny threshold must produce multiple segments"
        );
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0].len(), 20);
        for (i, p) in all[&0].iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 24]);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopened_sink_truncates_torn_tail_and_resumes_seq() {
        let root = tmpdir("torn");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            sink.send(ShardId(0), b"alpha").expect("send");
            sink.send(ShardId(0), b"beta").expect("send");
            sink.flush().expect("flush");
        }
        // Tear the log mid-record, as a crash between write and fsync
        // would.
        let log = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "log");
        let full = fs::metadata(&log).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&log).expect("open log");
        f.set_len(full + 7).expect("fake torn half-record"); // garbage tail
        drop(f);
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 2, "two intact");
        assert_eq!(fs::metadata(&log).expect("meta").len(), full, "tail gone");
        sink.send(ShardId(0), b"gamma").expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(
            all[&0],
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_rebuilds_index_entries_lost_in_crash() {
        // The log can be durable while the trailing idx entries are not
        // (crash between the two syncs, or BufWriter flush asymmetry).
        // Reopen must rebuild those entries from the log scan — the old
        // zero-extend planted seq=0/pos=0 entries that made any later
        // seek into that range a hard Corrupt error.
        let root = tmpdir("idxloss");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            for i in 0..6u8 {
                sink.send(ShardId(0), &[i; 10]).expect("send");
            }
            sink.flush().expect("flush");
        }
        let idx = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "idx");
        let full = fs::metadata(&idx).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&idx).expect("open idx");
        f.set_len(full - 2 * IDX_ENTRY as u64)
            .expect("drop last two idx entries");
        drop(f);
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 6);
        assert_eq!(
            fs::metadata(&idx).expect("meta").len(),
            full,
            "reopen restores the missing idx entries"
        );
        // Seek straight into the formerly zero-extended range.
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        src.seek(ShardId(0), SeqPos::At(4)).expect("seek");
        let mut msgs = Vec::new();
        while src
            .next_batch(&mut msgs, 8)
            .expect("read past rebuilt entries")
            > 0
        {}
        assert_eq!(
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>(),
            vec![4, 5],
            "rebuilt index addresses the tail records"
        );
        assert_eq!(&msgs[0].payload[..], &[4u8; 10]);
        // And the reopened sink keeps appending consistently.
        sink.send(ShardId(0), &[6; 10]).expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0].len(), 7);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_replaces_corrupt_index_entries() {
        // Not just missing entries: garbage in the idx (torn write) must
        // be detected against the log scan and rewritten.
        let root = tmpdir("idxgarbage");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            for i in 0..4u8 {
                sink.send(ShardId(0), &[i; 8]).expect("send");
            }
            sink.flush().expect("flush");
        }
        let idx = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "idx");
        let mut f = OpenOptions::new().write(true).open(&idx).expect("open idx");
        f.seek(SeekFrom::Start(2 * IDX_ENTRY as u64)).expect("seek");
        f.write_all(&[0xAA; 2 * IDX_ENTRY]).expect("scribble");
        drop(f);
        let _ = FileLogSink::open(&root, &key(), 1).expect("reopen");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        src.seek(ShardId(0), SeqPos::At(2)).expect("seek");
        let mut msgs = Vec::new();
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.iter().map(|m| m.seq).collect::<Vec<_>>(), vec![2, 3]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn oversized_length_header_is_torn_tail_not_allocation() {
        // A garbage header claiming ~4 GiB must be rejected before any
        // buffer is sized from it — reader treats it as a torn tail,
        // writer reopen truncates it.
        let root = tmpdir("hugelen");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
            sink.send(ShardId(0), b"good").expect("send");
            sink.flush().expect("flush");
        }
        let log = seg_path(&shard_dir(&root.join("t"), ShardId(0)), 0, "log");
        let full = fs::metadata(&log).expect("meta").len();
        let mut f = OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log");
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&u32::MAX.to_le_bytes()); // len ~4 GiB
        garbage.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // crc
        garbage.extend_from_slice(&1u64.to_le_bytes()); // seq (would chain)
        f.write_all(&garbage).expect("append garbage header");
        drop(f);
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        while src
            .next_batch(&mut msgs, 8)
            .expect("no error, no huge alloc")
            > 0
        {}
        assert_eq!(msgs.len(), 1, "only the intact record is delivered");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("reopen");
        assert_eq!(sink.next_seq(ShardId(0)).expect("seq"), 1);
        assert_eq!(
            fs::metadata(&log).expect("meta").len(),
            full,
            "reopen truncates the garbage tail"
        );
        sink.send(ShardId(0), b"next").expect("send");
        sink.flush().expect("flush");
        let all = read_all(&root, &key()).expect("read back");
        assert_eq!(all[&0], vec![b"good".to_vec(), b"next".to_vec()]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn source_opened_before_sink_discovers_shards_later() {
        // A non-group source opened before the producer created any
        // shard directory must pick them up once they appear instead of
        // returning 0 forever.
        let root = tmpdir("latesink");
        fs::create_dir_all(root.join("t")).expect("stream dir");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 0);
        assert!(src.assigned_shards().is_empty());
        let mut sink = FileLogSink::open(&root, &key(), 2).expect("open sink");
        for i in 0..4u8 {
            sink.send(ShardId(u32::from(i % 2)), &[i]).expect("send");
        }
        sink.flush().expect("flush");
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.len(), 4, "late-created shards are discovered");
        assert_eq!(src.assigned_shards(), vec![ShardId(0), ShardId(1)]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn committed_offsets_resume_where_the_group_left_off() {
        let root = tmpdir("resume");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        for i in 0..6u8 {
            sink.send(ShardId(0), &[i]).expect("send");
        }
        sink.flush().expect("flush");
        {
            let mut src = FileLogSource::open_resume(&root, &key(), "g", fastflow::BufPool::new())
                .expect("open");
            let mut msgs = Vec::new();
            src.next_batch(&mut msgs, 4).expect("read");
            assert_eq!(msgs.len(), 4);
            src.commit(ShardId(0), 4).expect("commit");
        }
        let mut src = FileLogSource::open_resume(&root, &key(), "g", fastflow::BufPool::new())
            .expect("reopen");
        assert_eq!(src.committed(ShardId(0)).expect("load"), Some(4));
        let mut msgs = Vec::new();
        src.next_batch(&mut msgs, 16).expect("read");
        let seqs: Vec<u64> = msgs.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![4, 5], "resume starts at the committed offset");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn seek_and_rewind_replay_deterministically() {
        let root = tmpdir("seek");
        let mut sink = FileLogSink::open(&root, &key(), 1)
            .expect("open")
            .with_segment_bytes(48);
        for i in 0..12u8 {
            sink.send(ShardId(0), &[i, i, i]).expect("send");
        }
        sink.flush().expect("flush");
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let drain = |src: &mut FileLogSource| {
            let mut msgs = Vec::new();
            while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
            msgs.iter().map(|m| m.seq).collect::<Vec<_>>()
        };
        let first = drain(&mut src);
        assert_eq!(first, (0..12).collect::<Vec<u64>>());
        src.seek(ShardId(0), SeqPos::At(7)).expect("seek");
        assert_eq!(drain(&mut src), (7..12).collect::<Vec<u64>>());
        src.rewind().expect("rewind");
        assert_eq!(drain(&mut src), first, "rewind replays identically");
        src.seek(ShardId(0), SeqPos::End).expect("end");
        assert_eq!(drain(&mut src), Vec::<u64>::new());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn realtime_source_sees_only_new_records() {
        let root = tmpdir("realtime");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        sink.send(ShardId(0), b"old").expect("send");
        sink.flush().expect("flush");
        let mut src =
            FileLogSource::open_realtime(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 0);
        sink.send(ShardId(0), b"new").expect("send");
        sink.flush().expect("flush");
        assert_eq!(src.next_batch(&mut msgs, 8).expect("read"), 1);
        assert_eq!(&msgs[0].payload[..], b"new");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unflushed_records_are_invisible_to_readers() {
        let root = tmpdir("unflushed");
        let mut sink = FileLogSink::open(&root, &key(), 1).expect("open");
        sink.send(ShardId(0), b"pending").expect("send");
        // No flush: the record may sit in the BufWriter; whatever the
        // reader sees must parse as either nothing or the whole record —
        // and commit-before-flush semantics say nothing.
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        let _ = src.next_batch(&mut msgs, 8).expect("no error on torn tail");
        sink.flush().expect("flush");
        while src.next_batch(&mut msgs, 8).expect("read") > 0 {}
        assert_eq!(msgs.len(), 1);
        assert_eq!(&msgs[0].payload[..], b"pending");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_idx_is_not_yet_only_for_an_empty_newest_segment() {
        let root = tmpdir("noidx");
        {
            let mut sink = FileLogSink::open(&root, &key(), 1)
                .expect("open")
                .with_segment_bytes(64);
            for i in 0..6u8 {
                sink.send(ShardId(0), &[i; 24]).expect("send");
            }
            sink.flush().expect("flush");
        }
        let dir = shard_dir(&root.join("t"), ShardId(0));
        let bases = list_segments(&dir).expect("list");
        assert!(bases.len() > 1, "tiny threshold must roll");
        let newest = *bases.last().expect("a segment");
        fs::remove_file(seg_path(&dir, newest, "idx")).expect("drop newest idx");

        // The newest log holds records the reader cannot locate: that is
        // an error, not an endless "nothing yet".
        let mut src =
            FileLogSource::open_replay(&root, &key(), fastflow::BufPool::new()).expect("open");
        let mut msgs = Vec::new();
        let mut failed = false;
        for _ in 0..10 {
            match src.next_batch(&mut msgs, 8) {
                Ok(_) => {}
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "records past a lost idx were silently cut off");
        assert_eq!(msgs.len() as u64, newest, "older segments still read");

        // A newest segment a writer is only just creating — an empty log,
        // its idx not there yet — reads as "not yet".
        let fresh = newest + 100;
        File::create(seg_path(&dir, fresh, "log")).expect("empty log");
        let bases = list_segments(&dir).expect("list");
        assert!(open_idx(&dir, fresh, &bases).expect("not yet").is_none());
        assert!(open_idx(&dir, newest, &bases).is_err(), "no longer newest");
        let _ = fs::remove_dir_all(&root);
    }
}
