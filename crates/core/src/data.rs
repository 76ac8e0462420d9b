//! Object payload storage: Key-Value maps and sparse byte Arrays.
//!
//! In **Full** data mode Arrays keep real bytes — erasure-coded objects
//! keep their actual `k + p` cells so reconstruction after target loss
//! runs the real Reed-Solomon decode.  In **Sized** mode only logical
//! sizes are tracked, which is what the large bandwidth sweeps use.

use crate::csum::CsumCodec;
use crate::ec::ErasureCode;
use cluster::payload::{Payload, ReadPayload};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Whether object payloads carry real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Real bytes, real parity, verifiable reads.
    Full,
    /// Sizes only; timing-identical, memory-light.
    Sized,
}

/// Availability of the shard-group members backing one Array chunk.
#[derive(Debug, Clone)]
pub enum CellAvailability {
    /// Every member up.
    All,
    /// Plain (unreplicated) shard whose target is down.
    Unavailable,
    /// Per-member availability mask (erasure-coded groups; length `k+p`).
    Mask(Vec<bool>),
}

/// Errors surfaced by the data layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Data lives on down targets and cannot be reconstructed.
    Unavailable,
}

/// A stored checksum that no longer verifies against its bytes — the
/// data layer's report of latent bit rot, consumed by the verified-read
/// and scrubber paths in [`crate::DaosSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsumMismatch {
    /// Chunk index whose stored checksum failed verification.
    pub chunk: u64,
    /// Mismatching cell indices for erasure-coded chunks (data cells
    /// `0..k`, parity `k..k+p`); empty for plain chunks.
    pub cells: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Key-Value objects
// ---------------------------------------------------------------------------

/// A Key-Value object: ordered map from small keys to values.  Every
/// value carries a whole-value checksum computed on put and verified on
/// fetch and by the scrubber; the two live in one entry, so a put copies
/// its key once and descends the tree once.
#[derive(Debug, Clone, Default)]
pub struct KvData {
    entries: BTreeMap<Vec<u8>, (Payload, u64)>,
    codec: CsumCodec,
}

impl KvData {
    /// Empty KV object.
    pub fn new() -> Self {
        Self::default()
    }

    fn value_sum(&self, value: &Payload) -> u64 {
        match value.bytes() {
            Some(b) => self.codec.sum(b),
            None => self.codec.sum_sized(value.len()),
        }
    }

    /// Insert or replace a value, recording its whole-value checksum.
    pub fn put(&mut self, key: &[u8], value: Payload) {
        let sum = self.value_sum(&value);
        self.entries.insert(key.to_vec(), (value, sum));
    }

    /// Look up a value.
    pub fn get(&self, key: &[u8]) -> Option<&Payload> {
        self.entries.get(key).map(|(v, _)| v)
    }

    /// Does the stored value still verify against its checksum?
    /// `None` when the key does not exist.
    pub fn verify(&self, key: &[u8]) -> Option<bool> {
        let (v, stored) = self.entries.get(key)?;
        Some(self.value_sum(v) == *stored)
    }

    /// Flip the first byte of the stored value — a planted-rot test
    /// hook.  Returns `false` for sized values (no bytes at rest).
    pub fn corrupt_value(&mut self, key: &[u8]) -> bool {
        match self.entries.get_mut(key) {
            Some((Payload::Bytes(b), _)) if !b.is_empty() => {
                b[0] ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// Remove a key; true if it existed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in order from `anchor` (inclusive; `b""` for all keys),
    /// borrowed: resuming a scan here costs one tree descent, and keys
    /// inserted or removed before the anchor cannot shift it.
    pub fn keys_from<'a>(&'a self, anchor: &[u8]) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.entries
            .range::<[u8], _>((Bound::Included(anchor), Bound::Unbounded))
            .map(|(k, _)| k.as_slice())
    }

    /// Keys in order, optionally restricted to a prefix.
    pub fn list(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        self.entries
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Array objects
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Chunk {
    /// Sized-mode marker: the chunk has been written.
    Sized,
    /// Full-mode plain or replicated chunk (one logical copy) with its
    /// stored whole-chunk checksum, computed at write time.
    Plain(Vec<u8>, u64),
    /// Full-mode erasure-coded chunk: `k` data cells then `p` parity,
    /// each cell with its own stored checksum.
    Ec(Vec<Vec<u8>>, Vec<u64>),
}

/// A sparse one-dimensional byte array, chunked by `chunk_size`.
#[derive(Debug, Clone)]
pub struct ArrayData {
    chunk_size: u64,
    size: u64,
    chunks: BTreeMap<u64, Chunk>,
    codec: CsumCodec,
}

impl ArrayData {
    /// Empty array with the given chunk size (DAOS `cell_size = 1`,
    /// `chunk_size` as in `daos_array_create`).
    pub fn new(chunk_size: u64) -> Self {
        assert!(chunk_size > 0);
        ArrayData {
            chunk_size,
            size: 0,
            chunks: BTreeMap::new(),
            codec: CsumCodec::default(),
        }
    }

    /// Chunk size in bytes.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Highest written byte + 1 (what `daos_array_get_size` reports).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Chunk indices touched by `[offset, offset+len)`.
    pub fn chunks_in_range(&self, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        (offset / self.chunk_size)..((offset + len - 1) / self.chunk_size + 1)
    }

    /// Write `payload` at `offset`.  `ec` must be given for erasure-coded
    /// objects in Full mode so cells and parity are materialised.
    pub fn write(
        &mut self,
        offset: u64,
        payload: &Payload,
        mode: DataMode,
        ec: Option<&ErasureCode>,
    ) {
        let len = payload.len();
        if len == 0 {
            return;
        }
        self.size = self.size.max(offset + len);
        match (mode, payload.bytes()) {
            (DataMode::Full, Some(bytes)) => self.write_bytes(offset, bytes, ec),
            // Full mode with a sized payload: materialise zeros so byte
            // chunks written earlier are not clobbered by markers.
            (DataMode::Full, None) => {
                let zeros = vec![0u8; len as usize];
                self.write_bytes(offset, &zeros, ec);
            }
            // Sized mode: record chunk presence only.
            (DataMode::Sized, _) => {
                for c in self.chunks_in_range(offset, len) {
                    self.chunks.insert(c, Chunk::Sized);
                }
            }
        }
    }

    fn write_bytes(&mut self, offset: u64, bytes: &[u8], ec: Option<&ErasureCode>) {
        let cs = self.chunk_size;
        let mut cursor = 0usize;
        let mut pos = offset;
        let end = offset + bytes.len() as u64;
        while pos < end {
            let chunk_idx = pos / cs;
            let within = (pos % cs) as usize;
            let take = ((cs as usize - within) as u64).min(end - pos) as usize;
            let seg = &bytes[cursor..cursor + take];
            // Materialise the chunk's logical buffer, apply, re-store.
            let mut buf = self.chunk_bytes_full(chunk_idx, ec);
            buf[within..within + take].copy_from_slice(seg);
            let chunk = match ec {
                None => {
                    let sum = self.codec.sum(&buf);
                    Chunk::Plain(buf, sum)
                }
                Some(code) => {
                    let cells = Self::encode_cells(&buf, code);
                    let sums = cells.iter().map(|c| self.codec.sum(c)).collect();
                    Chunk::Ec(cells, sums)
                }
            };
            self.chunks.insert(chunk_idx, chunk);
            pos += take as u64;
            cursor += take;
        }
    }

    /// The logical bytes of a chunk (zeros if unwritten), assuming all
    /// cells available.  Used for read-modify-write.
    fn chunk_bytes_full(&self, idx: u64, ec: Option<&ErasureCode>) -> Vec<u8> {
        match self.chunks.get(&idx) {
            None | Some(Chunk::Sized) => vec![0u8; self.chunk_size as usize],
            Some(Chunk::Plain(b, _)) => b.clone(),
            Some(Chunk::Ec(cells, _)) => {
                let code = ec.expect("EC chunk without code");
                let k = code.data_cells();
                let mut out = Vec::with_capacity(self.chunk_size as usize);
                for cell in &cells[..k] {
                    out.extend_from_slice(cell);
                }
                out.truncate(self.chunk_size as usize);
                out
            }
        }
    }

    fn encode_cells(buf: &[u8], code: &ErasureCode) -> Vec<Vec<u8>> {
        let k = code.data_cells();
        let cell_len = buf.len().div_ceil(k);
        let mut padded = buf.to_vec();
        padded.resize(cell_len * k, 0);
        let data: Vec<&[u8]> = padded.chunks(cell_len).collect();
        let parity = code.encode(&data);
        data.into_iter().map(|c| c.to_vec()).chain(parity).collect()
    }

    /// Read `len` bytes at `offset`.  Holes read as zeros (sparse-array
    /// semantics).  `avail` reports the health of the shard group backing
    /// each chunk; erasure-coded chunks with missing cells are
    /// reconstructed with the real decode.
    pub fn read(
        &self,
        offset: u64,
        len: u64,
        mode: DataMode,
        ec: Option<&ErasureCode>,
        avail: &dyn Fn(u64) -> CellAvailability,
    ) -> Result<ReadPayload, DataError> {
        if mode == DataMode::Sized {
            // Availability still gates the read.
            for c in self.chunks_in_range(offset, len) {
                match avail(c) {
                    CellAvailability::All => {}
                    CellAvailability::Unavailable => return Err(DataError::Unavailable),
                    CellAvailability::Mask(mask) => {
                        let code = ec.expect("EC availability without code");
                        let alive = mask.iter().filter(|&&a| a).count();
                        if alive < code.data_cells() {
                            return Err(DataError::Unavailable);
                        }
                    }
                }
            }
            return Ok(ReadPayload::Sized(len));
        }
        let mut out = vec![0u8; len as usize];
        let cs = self.chunk_size;
        let mut pos = offset;
        let end = offset + len;
        let mut cursor = 0usize;
        while pos < end {
            let chunk_idx = pos / cs;
            let within = (pos % cs) as usize;
            let take = ((cs as usize - within) as u64).min(end - pos) as usize;
            let dst = &mut out[cursor..cursor + take];
            match self.chunks.get(&chunk_idx) {
                None => {}               // hole: zeros
                Some(Chunk::Sized) => {} // sized marker in full mode: zeros
                Some(Chunk::Plain(b, _)) => match avail(chunk_idx) {
                    CellAvailability::Unavailable => return Err(DataError::Unavailable),
                    _ => dst.copy_from_slice(&b[within..within + take]),
                },
                Some(Chunk::Ec(cells, _)) => {
                    let code = ec.expect("EC chunk without code");
                    let masked: Vec<Option<Vec<u8>>> = match avail(chunk_idx) {
                        CellAvailability::All => cells.iter().cloned().map(Some).collect(),
                        CellAvailability::Unavailable => return Err(DataError::Unavailable),
                        CellAvailability::Mask(mask) => {
                            assert_eq!(mask.len(), cells.len());
                            cells
                                .iter()
                                .zip(&mask)
                                .map(|(c, &up)| up.then(|| c.clone()))
                                .collect()
                        }
                    };
                    let data = code.reconstruct(&masked).ok_or(DataError::Unavailable)?;
                    let mut logical = Vec::with_capacity(cs as usize);
                    for cell in &data {
                        logical.extend_from_slice(cell);
                    }
                    logical.truncate(cs as usize);
                    dst.copy_from_slice(&logical[within..within + take]);
                }
            }
            pos += take as u64;
            cursor += take;
        }
        Ok(ReadPayload::Bytes(out))
    }

    /// Whether a chunk has ever been written.
    pub fn chunk_written(&self, idx: u64) -> bool {
        self.chunks.contains_key(&idx)
    }

    /// Flip one stored byte backing `offset` — a **planted-violation test
    /// hook** for the durability oracles, never called by any data path.
    /// For erasure-coded chunks the flip lands inside the data cell
    /// holding the byte, modelling silent on-device corruption of a
    /// single EC cell.  Returns `false` when no real byte backs the
    /// offset (hole, or Sized mode).
    pub fn corrupt_at(&mut self, offset: u64) -> bool {
        let idx = offset / self.chunk_size;
        let within = (offset % self.chunk_size) as usize;
        match self.chunks.get_mut(&idx) {
            Some(Chunk::Plain(b, _)) => match b.get_mut(within) {
                Some(byte) => {
                    *byte ^= 0xFF;
                    true
                }
                None => false,
            },
            Some(Chunk::Ec(cells, _)) => {
                let cell_len = match cells.first() {
                    Some(c) if !c.is_empty() => c.len(),
                    _ => return false,
                };
                match cells
                    .get_mut(within / cell_len)
                    .and_then(|cell| cell.get_mut(within % cell_len))
                {
                    Some(byte) => {
                        *byte ^= 0xFF;
                        true
                    }
                    None => false,
                }
            }
            None | Some(Chunk::Sized) => false,
        }
    }

    /// Flip one stored byte inside parity cell `parity_idx` of the
    /// erasure-coded chunk containing `offset` — the planted-rot hook
    /// for cells no logical byte offset addresses.  Returns `false` for
    /// non-EC chunks or out-of-range parity indices.
    pub fn corrupt_parity_at(&mut self, offset: u64, parity_idx: usize, ec: &ErasureCode) -> bool {
        let idx = offset / self.chunk_size;
        let within = (offset % self.chunk_size) as usize;
        match self.chunks.get_mut(&idx) {
            Some(Chunk::Ec(cells, _)) => {
                let cell = ec.data_cells() + parity_idx;
                let cell_len = match cells.first() {
                    Some(c) if !c.is_empty() => c.len(),
                    _ => return false,
                };
                match cells
                    .get_mut(cell)
                    .and_then(|c| c.get_mut(within % cell_len))
                {
                    Some(byte) => {
                        *byte ^= 0xFF;
                        true
                    }
                    None => false,
                }
            }
            _ => false,
        }
    }

    /// Recompute and compare the stored checksum of chunk `idx`.
    /// `None` when the chunk verifies (or holds no bytes at rest);
    /// otherwise the mismatch with the offending EC cells.
    pub fn verify_chunk(&self, idx: u64) -> Option<CsumMismatch> {
        match self.chunks.get(&idx)? {
            Chunk::Sized => None,
            Chunk::Plain(b, stored) => (!self.codec.verify(b, *stored)).then(|| CsumMismatch {
                chunk: idx,
                cells: Vec::new(),
            }),
            Chunk::Ec(cells, sums) => {
                let bad: Vec<usize> = cells
                    .iter()
                    .zip(sums)
                    .enumerate()
                    .filter(|(_, (c, s))| !self.codec.verify(c, **s))
                    .map(|(i, _)| i)
                    .collect();
                (!bad.is_empty()).then_some(CsumMismatch {
                    chunk: idx,
                    cells: bad,
                })
            }
        }
    }

    /// Recompute checksums over every chunk touched by
    /// `[offset, offset+len)` and return the mismatches in chunk order.
    pub fn verify_range(&self, offset: u64, len: u64) -> Vec<CsumMismatch> {
        self.chunks_in_range(offset, len)
            .filter_map(|c| self.verify_chunk(c))
            .collect()
    }

    /// Written chunk indices in order from `first` (inclusive) — the
    /// scrubber's scan domain, resumed by range.
    pub fn written_chunks_from(&self, first: u64) -> impl Iterator<Item = u64> + '_ {
        self.chunks.range(first..).map(|(&c, _)| c)
    }

    /// Bytes at rest backing chunk `idx` (cells included for EC; 0 for
    /// holes and Sized markers).
    pub fn chunk_stored_bytes(&self, idx: u64) -> u64 {
        match self.chunks.get(&idx) {
            None | Some(Chunk::Sized) => 0,
            Some(Chunk::Plain(b, _)) => b.len() as u64,
            Some(Chunk::Ec(cells, _)) => cells.iter().map(|c| c.len() as u64).sum(),
        }
    }

    /// Truncate/extend the array's logical size (`daos_array_set_size`).
    pub fn set_size(&mut self, size: u64) {
        if size < self.size {
            let first_dead = size.div_ceil(self.chunk_size);
            self.chunks.retain(|&c, _| c < first_dead);
        }
        self.size = size;
    }
}

/// An object's payload: KV or Array.
#[derive(Debug, Clone)]
pub enum ObjData {
    /// Key-Value object.
    Kv(KvData),
    /// Array object.
    Array(ArrayData),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::payload::Payload;

    fn all(_c: u64) -> CellAvailability {
        CellAvailability::All
    }

    #[test]
    fn kv_put_get_list_remove() {
        let mut kv = KvData::new();
        kv.put(b"step/0001", Payload::Bytes(vec![1, 2]));
        kv.put(b"step/0002", Payload::Sized(100));
        kv.put(b"other", Payload::Sized(1));
        assert_eq!(kv.get(b"step/0001").unwrap().len(), 2);
        assert_eq!(kv.list(b"step/").len(), 2);
        assert_eq!(kv.len(), 3);
        assert!(kv.remove(b"other"));
        assert!(!kv.remove(b"other"));
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn array_write_read_round_trip() {
        let mut a = ArrayData::new(64);
        let data: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        a.write(10, &Payload::Bytes(data.clone()), DataMode::Full, None);
        assert_eq!(a.size(), 210);
        let r = a.read(10, 200, DataMode::Full, None, &all).unwrap();
        assert_eq!(r.bytes().unwrap(), &data[..]);
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut a = ArrayData::new(64);
        a.write(128, &Payload::Bytes(vec![7; 64]), DataMode::Full, None);
        let r = a.read(0, 192, DataMode::Full, None, &all).unwrap();
        let b = r.bytes().unwrap();
        assert!(b[..128].iter().all(|&x| x == 0));
        assert!(b[128..].iter().all(|&x| x == 7));
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut a = ArrayData::new(32);
        a.write(0, &Payload::Bytes(vec![1; 64]), DataMode::Full, None);
        a.write(16, &Payload::Bytes(vec![2; 32]), DataMode::Full, None);
        let b = a.read(0, 64, DataMode::Full, None, &all).unwrap();
        let b = b.bytes().unwrap().to_vec();
        assert!(b[..16].iter().all(|&x| x == 1));
        assert!(b[16..48].iter().all(|&x| x == 2));
        assert!(b[48..].iter().all(|&x| x == 1));
    }

    #[test]
    fn sized_mode_tracks_size_only() {
        let mut a = ArrayData::new(1024);
        a.write(0, &Payload::Sized(4096), DataMode::Sized, None);
        assert_eq!(a.size(), 4096);
        let r = a.read(0, 4096, DataMode::Sized, None, &all).unwrap();
        assert_eq!(r, ReadPayload::Sized(4096));
    }

    #[test]
    fn ec_write_read_and_degraded_reconstruction() {
        let code = ErasureCode::new(2, 1);
        let mut a = ArrayData::new(128);
        let mut rng = simkit::SplitMix64::new(9);
        let mut data = vec![0u8; 256];
        rng.fill_bytes(&mut data);
        a.write(
            0,
            &Payload::Bytes(data.clone()),
            DataMode::Full,
            Some(&code),
        );

        // healthy read
        let r = a.read(0, 256, DataMode::Full, Some(&code), &all).unwrap();
        assert_eq!(r.bytes().unwrap(), &data[..]);

        // degraded read: first data cell of every chunk lost
        let degraded = |_c: u64| CellAvailability::Mask(vec![false, true, true]);
        let r = a
            .read(0, 256, DataMode::Full, Some(&code), &degraded)
            .unwrap();
        assert_eq!(r.bytes().unwrap(), &data[..], "reconstructed from parity");

        // two cells lost: unrecoverable
        let dead = |_c: u64| CellAvailability::Mask(vec![false, false, true]);
        assert_eq!(
            a.read(0, 256, DataMode::Full, Some(&code), &dead),
            Err(DataError::Unavailable)
        );
    }

    #[test]
    fn ec_partial_chunk_rmw() {
        let code = ErasureCode::new(2, 1);
        let mut a = ArrayData::new(100); // not divisible by k: exercises padding
        a.write(
            0,
            &Payload::Bytes(vec![3; 100]),
            DataMode::Full,
            Some(&code),
        );
        a.write(
            25,
            &Payload::Bytes(vec![9; 10]),
            DataMode::Full,
            Some(&code),
        );
        let degraded = |_c: u64| CellAvailability::Mask(vec![true, false, true]);
        let r = a
            .read(0, 100, DataMode::Full, Some(&code), &degraded)
            .unwrap();
        let b = r.bytes().unwrap();
        assert!(b[..25].iter().all(|&x| x == 3));
        assert!(b[25..35].iter().all(|&x| x == 9));
        assert!(b[35..].iter().all(|&x| x == 3));
    }

    #[test]
    fn corrupt_at_flips_real_bytes_only() {
        // Plain chunk: the flip is visible to a healthy read.
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Bytes(vec![5; 64]), DataMode::Full, None);
        assert!(a.corrupt_at(10));
        let b = a.read(0, 64, DataMode::Full, None, &all).unwrap();
        assert_eq!(b.bytes().unwrap()[10], 5 ^ 0xFF);

        // EC chunk: the flip lands in the data cell backing the offset.
        let code = ErasureCode::new(2, 1);
        let mut e = ArrayData::new(128);
        e.write(
            0,
            &Payload::Bytes(vec![7; 128]),
            DataMode::Full,
            Some(&code),
        );
        assert!(e.corrupt_at(100)); // second data cell (cell_len = 64)
        let b = e.read(0, 128, DataMode::Full, Some(&code), &all).unwrap();
        assert_eq!(b.bytes().unwrap()[100], 7 ^ 0xFF);

        // Holes and Sized chunks hold no bytes to corrupt.
        let mut s = ArrayData::new(64);
        s.write(0, &Payload::Sized(64), DataMode::Sized, None);
        assert!(!s.corrupt_at(0));
        assert!(!s.corrupt_at(1 << 20));
    }

    #[test]
    fn verify_detects_flips_and_repair_by_reflip() {
        // Plain chunk: clean until rot lands, clean again when the
        // repair path restores the byte (xor is an involution).
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Bytes(vec![5; 64]), DataMode::Full, None);
        assert!(a.verify_range(0, 64).is_empty());
        assert!(a.corrupt_at(10));
        let bad = a.verify_range(0, 64);
        assert_eq!(
            bad,
            vec![CsumMismatch {
                chunk: 0,
                cells: vec![]
            }]
        );
        assert!(a.corrupt_at(10)); // repair = restore from a healthy copy
        assert!(a.verify_range(0, 64).is_empty());

        // EC chunk: the mismatch names the offending cell, including
        // parity cells that no logical offset addresses.
        let code = ErasureCode::new(2, 1);
        let mut e = ArrayData::new(128);
        e.write(
            0,
            &Payload::Bytes(vec![7; 128]),
            DataMode::Full,
            Some(&code),
        );
        assert!(e.corrupt_at(100)); // second data cell
        assert!(e.corrupt_parity_at(0, 0, &code));
        let bad = e.verify_chunk(0).expect("rot detected");
        assert_eq!(bad.cells, vec![1, 2]);
        assert!(e.corrupt_at(100));
        assert!(e.corrupt_parity_at(0, 0, &code));
        assert!(e.verify_chunk(0).is_none());

        // Sized chunks hold no bytes at rest: nothing to verify.
        let mut s = ArrayData::new(64);
        s.write(0, &Payload::Sized(64), DataMode::Sized, None);
        assert!(s.verify_range(0, 64).is_empty());
        assert!(!s.corrupt_parity_at(0, 0, &code));
    }

    #[test]
    fn overwrite_recomputes_checksums() {
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Bytes(vec![5; 64]), DataMode::Full, None);
        assert!(a.corrupt_at(10));
        // A full-chunk overwrite replaces bytes and checksum together.
        a.write(0, &Payload::Bytes(vec![9; 64]), DataMode::Full, None);
        assert!(a.verify_range(0, 64).is_empty());
        assert_eq!(a.chunk_stored_bytes(0), 64);
    }

    #[test]
    fn kv_values_are_checksummed() {
        let mut kv = KvData::new();
        kv.put(b"k", Payload::Bytes(vec![1, 2, 3]));
        kv.put(b"sized", Payload::Sized(100));
        assert_eq!(kv.verify(b"k"), Some(true));
        assert_eq!(kv.verify(b"sized"), Some(true));
        assert_eq!(kv.verify(b"missing"), None);
        assert!(kv.corrupt_value(b"k"));
        assert_eq!(kv.verify(b"k"), Some(false));
        assert!(kv.corrupt_value(b"k")); // repair restores the byte
        assert_eq!(kv.verify(b"k"), Some(true));
        assert!(!kv.corrupt_value(b"sized"));
    }

    #[test]
    fn plain_chunk_unavailable() {
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Bytes(vec![1; 64]), DataMode::Full, None);
        let down = |_c: u64| CellAvailability::Unavailable;
        assert_eq!(
            a.read(0, 64, DataMode::Full, None, &down),
            Err(DataError::Unavailable)
        );
    }

    #[test]
    fn sized_mode_respects_availability() {
        let code = ErasureCode::new(2, 1);
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Sized(64), DataMode::Sized, Some(&code));
        let dead = |_c: u64| CellAvailability::Mask(vec![false, false, true]);
        assert!(a.read(0, 64, DataMode::Sized, Some(&code), &dead).is_err());
    }

    #[test]
    fn set_size_truncates_chunks() {
        let mut a = ArrayData::new(64);
        a.write(0, &Payload::Bytes(vec![5; 256]), DataMode::Full, None);
        a.set_size(100);
        assert_eq!(a.size(), 100);
        assert!(a.chunk_written(0));
        assert!(a.chunk_written(1));
        assert!(!a.chunk_written(3));
        a.set_size(300);
        assert_eq!(a.size(), 300);
    }

    #[test]
    fn chunk_range_math() {
        let a = ArrayData::new(100);
        assert_eq!(a.chunks_in_range(0, 0), 0..0);
        assert_eq!(a.chunks_in_range(0, 100), 0..1);
        assert_eq!(a.chunks_in_range(0, 101), 0..2);
        assert_eq!(a.chunks_in_range(99, 2), 0..2);
        assert_eq!(a.chunks_in_range(250, 1), 2..3);
    }
}
