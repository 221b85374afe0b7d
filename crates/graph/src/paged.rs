//! Out-of-core graphs: a fixed-size-page on-disk CSR layout plus the
//! pinned-page buffer pool that serves it.
//!
//! Every graph in the workspace so far lives fully in RAM. This module is
//! the out-of-core escape hatch: [`PagedCsrWriter`] serializes any
//! [`LabeledGraph`] into a page-aligned binary CSR file, and
//! [`PagedGraph`] reads it back **page at a time** through a classic
//! database-style [`BufferPool`] — pin, copy, unpin — so residency is
//! bounded by the configured frame budget, not by `|E|`.
//!
//! # File layout (version 3, all integers little-endian)
//!
//! ```text
//! page 0            header: magic "LCPGCSR\0", version, page size,
//!                   counts (nodes, adjacency entries, labels, label
//!                   entries, max degree), the first page of each
//!                   section below, and (v2+) the checksum-table page
//! pages 1..         neighbor offsets   (num_nodes + 1) × u64
//! pages ..          adjacency          adjacency_len   × u32  (NodeId)
//! pages ..          label offsets      (num_nodes + 1) × u64
//! pages ..          label data         label_data_len  × u32  (LabelId)
//! pages ..          checksum table     data_pages × u64  (v2+; XXH64 in v3)
//! ```
//!
//! Each section starts on a page boundary and is zero-padded to one; an
//! individual neighbor (or label) list may straddle any number of pages.
//!
//! The **checksum table** holds one sum per *data* page (header page
//! included, the table's own pages excluded) and is loaded whole at open
//! time, when the header page is checked against its entry. The pool
//! verifies every page read against it, which is what lets a faulty store
//! ([`FaultyStorage`]) be survived: a failed or torn read is retried up to
//! [`PageStore::max_retries`] times, and a page whose retries are
//! exhausted is recovered through the store's fault-free path and
//! **quarantined** (counted once per page in [`PagingStats`]). The sums
//! catch torn and misdirected reads; they are no defence against
//! tampering.
//!
//! # Version history
//!
//! The header's version field picks the kernel a file is verified with.
//! Only the current version is written; older ones still open.
//!
//! - **v1**: no checksum table; opens with verification inert.
//! - **v2**: the table holds FNV-1a-64 sums.
//! - **v3** (current): same layout as v2, the table holds XXH64 (seed 0)
//!   sums — [`page_checksum`].
//!
//! v3 exists for speed. FNV-1a folds a page one byte at a time through a
//! single xor–multiply chain, so every multiply waits on the one before
//! it: 4 096 dependent steps per 4 KiB page. XXH64 reads 8-byte words
//! into four independent lanes, 512 steps with four in flight. On a
//! 2-vCPU Xeon VM a 4 KiB page costs ~5.8 µs under FNV-1a and ~0.45 µs
//! under XXH64, against ~0.45 µs for a page-cache `pread` of it: under
//! v2 the checksum was most of a buffer-pool page fault.
//!
//! # Determinism
//!
//! The pool only changes *where* bytes come from, never which bytes a
//! reader sees: at any frame budget — even one forcing an eviction per
//! fetch — [`PagedGraph::neighbors`] and [`PagedGraph::labels`] return
//! exactly the in-RAM graph's lists. Under strictly serial access the
//! paging counters ([`PagingStats`]) are a pure function of the request
//! sequence and the pool configuration. Storage faults keep that
//! contract: injection is a pure hash of `(seed, page, attempt)`, so a
//! faulty run is reproducible byte for byte.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::{LabelId, LabeledGraph, NodeId};

/// Versioned magic: the file type tag; the format version rides beside it.
pub const PAGED_MAGIC: [u8; 8] = *b"LCPGCSR\0";

/// Current on-disk format version (v3 = XXH64 per-page checksum table;
/// v2 files, with an FNV-1a table, and v1 files, without one, still
/// open).
pub const PAGED_FORMAT_VERSION: u32 = 3;

/// Default page size: 4 KiB, the common filesystem block size.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;

/// Smallest allowed page size (the header needs [`HEADER_BYTES`] bytes).
pub const MIN_PAGE_SIZE: u32 = 128;

/// Bytes the header actually uses inside page 0 (v1 used the first 96;
/// v2 appends the checksum-table page pointer).
pub const HEADER_BYTES: usize = 104;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// XXH64 with seed 0 over a whole page — the v3 per-page checksum (the
/// published algorithm, tail included, so any length hashes). It guards
/// against torn and misdirected reads, not adversarial tampering.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for s in &mut stripes {
            v[0] = xxh64_round(v[0], le_u64(&s[0..]));
            v[1] = xxh64_round(v[1], le_u64(&s[8..]));
            v[2] = xxh64_round(v[2], le_u64(&s[16..]));
            v[3] = xxh64_round(v[3], le_u64(&s[24..]));
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ xxh64_round(0, lane))
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
        }
        h
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h = (h ^ xxh64_round(0, le_u64(tail)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(PRIME64_2);
    h = (h ^ (h >> 29)).wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// FNV-1a 64-bit over a whole page — the v2 per-page checksum, kept only
/// so v2 files stay readable; nothing writes it any more.
fn fnv1a_page(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A per-page checksum kernel.
type ChecksumFn = fn(&[u8]) -> u64;

/// The kernel a file's format version verifies pages with (`None` for
/// v1, which carries no table).
fn checksum_kernel(version: u32) -> Option<ChecksumFn> {
    match version {
        2 => Some(fnv1a_page),
        PAGED_FORMAT_VERSION => Some(page_checksum),
        _ => None,
    }
}

/// Errors produced when opening or validating a paged CSR file.
#[derive(Debug)]
pub enum PagedError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid paged CSR (bad magic, version, or layout).
    Format(String),
}

impl std::fmt::Display for PagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedError::Io(e) => write!(f, "I/O error: {e}"),
            PagedError::Format(msg) => write!(f, "invalid paged CSR: {msg}"),
        }
    }
}

impl std::error::Error for PagedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PagedError::Io(e) => Some(e),
            PagedError::Format(_) => None,
        }
    }
}

impl From<io::Error> for PagedError {
    fn from(e: io::Error) -> Self {
        PagedError::Io(e)
    }
}

/// Summary of a file [`PagedCsrWriter::write`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagedFileMeta {
    /// Page size the file was written with.
    pub page_size: u32,
    /// Total pages, header included.
    pub total_pages: u64,
    /// Total file size in bytes (`total_pages × page_size`).
    pub file_bytes: u64,
}

/// Writes a [`LabeledGraph`] into the paged on-disk CSR layout.
///
/// ```no_run
/// # use labelcount_graph::{GraphBuilder, NodeId};
/// # use labelcount_graph::paged::PagedCsrWriter;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// let g = b.build();
/// let meta = PagedCsrWriter::new()
///     .write(&g, std::path::Path::new("/tmp/g.lcp"))
///     .unwrap();
/// assert!(meta.total_pages >= 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PagedCsrWriter {
    page_size: u32,
}

impl Default for PagedCsrWriter {
    fn default() -> Self {
        PagedCsrWriter::new()
    }
}

impl PagedCsrWriter {
    /// A writer at [`DEFAULT_PAGE_SIZE`].
    pub fn new() -> PagedCsrWriter {
        PagedCsrWriter {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// A writer with an explicit page size.
    ///
    /// # Panics
    /// Panics unless `page_size` is a power of two at least
    /// [`MIN_PAGE_SIZE`].
    pub fn with_page_size(page_size: u32) -> PagedCsrWriter {
        assert!(
            page_size.is_power_of_two() && page_size >= MIN_PAGE_SIZE,
            "page size must be a power of two >= {MIN_PAGE_SIZE}, got {page_size}"
        );
        PagedCsrWriter { page_size }
    }

    /// Serializes `g` to `path`, replacing any existing file.
    pub fn write(&self, g: &LabeledGraph, path: &Path) -> io::Result<PagedFileMeta> {
        let ps = self.page_size as u64;
        let n = g.num_nodes() as u64;
        // The id space is u32; anything wider would already have broken
        // the in-RAM CSR, but the on-disk format checks explicitly so a
        // corrupted graph can never silently truncate into the file.
        u32::try_from(n.saturating_sub(1))
            .map_err(|_| io::Error::other("node count exceeds the u32 id space"))?;
        let adjacency_len = g.degree_sum() as u64;
        let label_data_len: u64 = g.nodes().map(|u| g.labels(u).len() as u64).sum();
        let max_degree = g.nodes().map(|u| g.degree(u) as u64).max().unwrap_or(0);

        let pages_of = |bytes: u64| bytes.div_ceil(ps).max(1);
        let offsets_pages = pages_of((n + 1) * 8);
        let adjacency_pages = pages_of(adjacency_len * 4);
        let label_offsets_pages = pages_of((n + 1) * 8);
        let label_data_pages = pages_of(label_data_len * 4);

        let neighbor_offsets_page = 1u64;
        let adjacency_page = neighbor_offsets_page + offsets_pages;
        let label_offsets_page = adjacency_page + adjacency_pages;
        let label_data_page = label_offsets_page + label_offsets_pages;
        // The checksum table starts right after the data pages and is
        // itself excluded from checksumming (a torn table read surfaces as
        // a mismatch on the data page it vouches for).
        let checksum_page = label_data_page + label_data_pages;
        let total_pages = checksum_page + pages_of(checksum_page * 8);

        // Every data page is summed on its way to disk, so the table costs
        // no second pass over the file. The buffer above the summer holds
        // a whole number of pages (both sizes are powers of two), so its
        // flushes mostly arrive as whole pages that are hashed in place.
        let buffer_bytes = (self.page_size as usize).max(WRITE_BUFFER_BYTES);
        let mut w = BufWriter::with_capacity(
            buffer_bytes,
            ChecksumWriter::new(File::create(path)?, self.page_size as usize),
        );

        // Header page.
        let mut header = vec![0u8; self.page_size as usize];
        header[0..8].copy_from_slice(&PAGED_MAGIC);
        header[8..12].copy_from_slice(&PAGED_FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        header[16..24].copy_from_slice(&n.to_le_bytes());
        header[24..32].copy_from_slice(&adjacency_len.to_le_bytes());
        header[32..40].copy_from_slice(&(g.num_labels() as u64).to_le_bytes());
        header[40..48].copy_from_slice(&label_data_len.to_le_bytes());
        header[48..56].copy_from_slice(&max_degree.to_le_bytes());
        header[56..64].copy_from_slice(&neighbor_offsets_page.to_le_bytes());
        header[64..72].copy_from_slice(&adjacency_page.to_le_bytes());
        header[72..80].copy_from_slice(&label_offsets_page.to_le_bytes());
        header[80..88].copy_from_slice(&label_data_page.to_le_bytes());
        header[88..96].copy_from_slice(&total_pages.to_le_bytes());
        header[96..104].copy_from_slice(&checksum_page.to_le_bytes());
        w.write_all(&header)?;

        // Neighbor offsets (cumulative degrees), zero-padded to a page.
        let mut section = SectionWriter::new(&mut w, ps);
        let mut off = 0u64;
        section.put_u64(off)?;
        for u in g.nodes() {
            off += g.degree(u) as u64;
            section.put_u64(off)?;
        }
        section.finish()?;

        // Adjacency.
        let mut section = SectionWriter::new(&mut w, ps);
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                section.put_u32(v.0)?;
            }
        }
        section.finish()?;

        // Label offsets.
        let mut section = SectionWriter::new(&mut w, ps);
        let mut off = 0u64;
        section.put_u64(off)?;
        for u in g.nodes() {
            off += g.labels(u).len() as u64;
            section.put_u64(off)?;
        }
        section.finish()?;

        // Label data.
        let mut section = SectionWriter::new(&mut w, ps);
        for u in g.nodes() {
            for &l in g.labels(u) {
                section.put_u32(l.0)?;
            }
        }
        section.finish()?;

        // Checksum table — written past the summer so the table's own
        // pages are not summed into it.
        let (file, sums) = w
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .finish();
        debug_assert_eq!(sums.len() as u64, checksum_page, "one sum per data page");
        let mut w = BufWriter::new(file);
        let mut section = SectionWriter::new(&mut w, ps);
        for s in sums {
            section.put_u64(s)?;
        }
        section.finish()?;

        w.flush()?;
        Ok(PagedFileMeta {
            page_size: self.page_size,
            total_pages,
            file_bytes: total_pages * ps,
        })
    }
}

/// Smallest write buffer above the [`ChecksumWriter`]: 8 KiB, the
/// `BufWriter` default, so summing costs no buffer memory beyond one
/// staged page.
const WRITE_BUFFER_BYTES: usize = 8 * 1024;

/// Cuts the byte stream passing through into pages and sums each
/// completed page with [`page_checksum`] — how the writer produces the
/// checksum table in one streaming pass. The wrapped writer sees exactly
/// the same bytes. Meant to sit under a page-multiple `BufWriter`: whole
/// pages are hashed straight out of each chunk it flushes, and only a
/// page split across two chunks is staged in `partial`.
struct ChecksumWriter<W: Write> {
    w: W,
    page_size: usize,
    partial: Vec<u8>,
    sums: Vec<u64>,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(w: W, page_size: usize) -> Self {
        ChecksumWriter {
            w,
            page_size,
            partial: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Hands back the inner writer and the per-page sums. Callers must be
    /// page-aligned (every section zero-pads), so there is no partial sum
    /// to lose.
    fn finish(self) -> (W, Vec<u64>) {
        debug_assert!(
            self.partial.is_empty(),
            "checksummed writes must be page-aligned"
        );
        (self.w, self.sums)
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        let mut rest = &buf[..n];
        if !self.partial.is_empty() {
            let take = (self.page_size - self.partial.len()).min(rest.len());
            self.partial.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.partial.len() == self.page_size {
                self.sums.push(page_checksum(&self.partial));
                self.partial.clear();
            }
        }
        let mut pages = rest.chunks_exact(self.page_size);
        self.sums.extend(pages.by_ref().map(page_checksum));
        self.partial.extend_from_slice(pages.remainder());
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Streams one section, tracking bytes written so `finish` can zero-pad
/// to the next page boundary (an empty section still occupies one page —
/// every section start in the header is a real page).
struct SectionWriter<'w, W: Write> {
    w: &'w mut W,
    page_size: u64,
    written: u64,
}

impl<'w, W: Write> SectionWriter<'w, W> {
    fn new(w: &'w mut W, page_size: u64) -> Self {
        SectionWriter {
            w,
            page_size,
            written: 0,
        }
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.written += 8;
        self.w.write_all(&v.to_le_bytes())
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.written += 4;
        self.w.write_all(&v.to_le_bytes())
    }

    fn finish(self) -> io::Result<()> {
        let pad = (self.written.div_ceil(self.page_size).max(1) * self.page_size) - self.written;
        if pad > 0 {
            self.w.write_all(&vec![0u8; pad as usize])?;
        }
        Ok(())
    }
}

/// The storage a [`BufferPool`] reads pages from — a seam between the
/// pool and the disk, so fault injection wraps the file instead of
/// patching the pool.
///
/// The pool drives the fault protocol: on a miss it calls
/// [`PageStore::read_page`] with attempt 0, verifies the bytes against
/// the checksum table (when the file carries one), and on failure retries
/// with increasing attempt numbers up to [`PageStore::max_retries`];
/// exhausted pages are recovered through [`PageStore::read_page_clean`]
/// and quarantined.
pub trait PageStore: Send + Sync {
    /// Reads page `page_no` into `buf` (exactly one page). `attempt`
    /// distinguishes retries, so deterministic injection can fail the
    /// first read and let a retry through.
    fn read_page(&self, page_no: u64, buf: &mut [u8], attempt: u32) -> io::Result<()>;

    /// Bounded retries the pool may spend on one faulty page read.
    fn max_retries(&self) -> u32 {
        0
    }

    /// Fault-free recovery read for a page whose retries are exhausted.
    /// Real stores read identically to [`PageStore::read_page`]; only an
    /// actual I/O failure escapes this path.
    fn read_page_clean(&self, page_no: u64, buf: &mut [u8]) -> io::Result<()>;
}

impl PageStore for File {
    fn read_page(&self, page_no: u64, buf: &mut [u8], _attempt: u32) -> io::Result<()> {
        self.read_exact_at(buf, page_no * buf.len() as u64)
    }

    fn read_page_clean(&self, page_no: u64, buf: &mut [u8]) -> io::Result<()> {
        self.read_exact_at(buf, page_no * buf.len() as u64)
    }
}

/// Seeded storage-fault knobs for [`FaultyStorage`]. Every injection
/// decision is a pure hash of `(seed, page, attempt)` — no interior
/// state — so faulty runs replay exactly and are placement-independent.
#[derive(Clone, Copy, Debug)]
pub struct StorageFaultConfig {
    /// Fault-stream seed.
    pub seed: u64,
    /// Probability a page read fails outright with an I/O error.
    pub read_error_rate: f64,
    /// Probability a page read succeeds but returns **torn** bytes: the
    /// page's tail from a seeded cut point reads as zeros (with the cut
    /// byte itself flipped, so the tear is always checksum-visible).
    pub torn_page_rate: f64,
    /// Retries the pool may spend per faulty read before recovering the
    /// page through the clean path and quarantining it.
    pub max_retries: u32,
}

impl StorageFaultConfig {
    /// A fault-free configuration (both rates 0) with a small retry
    /// budget — the baseline every faulty variant perturbs.
    pub fn clean(seed: u64) -> StorageFaultConfig {
        StorageFaultConfig {
            seed,
            read_error_rate: 0.0,
            torn_page_rate: 0.0,
            max_retries: 2,
        }
    }
}

/// SplitMix64 over `(seed, page, attempt, salt)` — the storage twin of
/// the OSN layer's fault hash (independent salt space).
fn storage_hash(seed: u64, page: u64, attempt: u32, salt: u64) -> u64 {
    let mut z = seed
        ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((attempt as u64) << 24)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a unit-interval draw (53-bit mantissa).
fn storage_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_READ_ERROR: u64 = 1;
const SALT_TORN: u64 = 2;
const SALT_TORN_CUT: u64 = 3;

/// A [`PageStore`] over a real file that injects seeded read errors and
/// torn pages — the storage half of the fault model (the OSN half lives
/// in `labelcount-osn`'s `AdversarialOsn`). With both rates 0 it is
/// byte- and counter-identical to reading the [`File`] directly.
pub struct FaultyStorage {
    file: File,
    cfg: StorageFaultConfig,
}

impl FaultyStorage {
    /// Wraps `file` with the given fault configuration.
    ///
    /// # Panics
    /// Panics if either rate is outside `[0, 1]` or not finite.
    pub fn new(file: File, cfg: StorageFaultConfig) -> FaultyStorage {
        for (name, r) in [
            ("read_error_rate", cfg.read_error_rate),
            ("torn_page_rate", cfg.torn_page_rate),
        ] {
            assert!(
                r.is_finite() && (0.0..=1.0).contains(&r),
                "{name} must be in [0, 1], got {r}"
            );
        }
        FaultyStorage { file, cfg }
    }
}

impl PageStore for FaultyStorage {
    fn read_page(&self, page_no: u64, buf: &mut [u8], attempt: u32) -> io::Result<()> {
        let err = storage_hash(self.cfg.seed, page_no, attempt, SALT_READ_ERROR);
        if storage_unit(err) < self.cfg.read_error_rate {
            return Err(io::Error::other(format!(
                "injected storage read error (page {page_no}, attempt {attempt})"
            )));
        }
        self.file.read_exact_at(buf, page_no * buf.len() as u64)?;
        let torn = storage_hash(self.cfg.seed, page_no, attempt, SALT_TORN);
        if storage_unit(torn) < self.cfg.torn_page_rate && !buf.is_empty() {
            let cut = (storage_hash(self.cfg.seed, page_no, attempt, SALT_TORN_CUT)
                % buf.len() as u64) as usize;
            buf[cut] ^= 0xFF;
            for b in &mut buf[cut + 1..] {
                *b = 0;
            }
        }
        Ok(())
    }

    fn max_retries(&self) -> u32 {
        self.cfg.max_retries
    }

    fn read_page_clean(&self, page_no: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, page_no * buf.len() as u64)
    }
}

/// Frame-replacement policy of the [`BufferPool`] — the same three
/// classics the session L1 weighs (its slots use second-chance), made
/// pluggable here so the `eviction` experiment can sweep them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently *used* unpinned frame.
    #[default]
    Lru,
    /// FIFO with a reference bit: a referenced victim is granted a second
    /// chance (re-queued at the back, bit cleared) before eviction.
    SecondChance,
    /// CLOCK: a fixed circular hand over the frame table, clearing
    /// reference bits until it finds an unreferenced unpinned frame.
    Clock,
}

impl EvictionPolicy {
    /// All policies, in sweep order.
    pub fn all() -> [EvictionPolicy; 3] {
        [
            EvictionPolicy::Lru,
            EvictionPolicy::SecondChance,
            EvictionPolicy::Clock,
        ]
    }

    /// Stable lowercase name (CLI / CSV).
    pub fn name(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::SecondChance => "second-chance",
            EvictionPolicy::Clock => "clock",
        }
    }

    /// Parses [`EvictionPolicy::name`] back.
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        EvictionPolicy::all().into_iter().find(|p| p.name() == s)
    }
}

/// Sizing and policy knobs for a [`BufferPool`].
///
/// Construct through [`PoolConfig::builder`] (or the
/// [`PoolConfig::unbounded`] / [`PoolConfig::bounded`] shorthands, which
/// delegate to it) and read through the accessor methods.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolConfig {
    frames: Option<usize>,
    policy: EvictionPolicy,
}

impl PoolConfig {
    /// Starts a builder at the defaults (unbounded, LRU).
    pub fn builder() -> PoolConfigBuilder {
        PoolConfigBuilder {
            cfg: PoolConfig::default(),
        }
    }

    /// An unbounded pool (every page read once, never evicted).
    pub fn unbounded() -> PoolConfig {
        PoolConfig::builder().build()
    }

    /// A bounded pool of `frames` frames under `policy`.
    pub fn bounded(frames: usize, policy: EvictionPolicy) -> PoolConfig {
        PoolConfig::builder().frames(frames).policy(policy).build()
    }

    /// Frame budget: the target number of resident pages. `None` is
    /// unbounded (no eviction ever). The budget is a *target*, not a hard
    /// cap: when every frame is pinned mid-fetch the pool overcommits by
    /// allocating extra frames rather than deadlocking — visible in
    /// [`PagingStats::pinned_peak`].
    pub fn frames(&self) -> Option<usize> {
        self.frames
    }

    /// Replacement policy for unpinned frames.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }
}

/// Builder for [`PoolConfig`] — the one supported construction path
/// (mirrors `Workload::builder()` and `CacheConfig::builder()`).
///
/// ```
/// use labelcount_graph::paged::{EvictionPolicy, PoolConfig};
///
/// let cfg = PoolConfig::builder()
///     .frames(64)
///     .policy(EvictionPolicy::Clock)
///     .build();
/// assert_eq!(cfg.frames(), Some(64));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PoolConfigBuilder {
    cfg: PoolConfig,
}

impl PoolConfigBuilder {
    /// Bounds the pool at `frames` resident pages (clamped to `>= 1`).
    #[must_use = "returns the modified builder"]
    pub fn frames(mut self, frames: usize) -> PoolConfigBuilder {
        self.cfg.frames = Some(frames.max(1));
        self
    }

    /// Removes the frame budget (the default).
    #[must_use = "returns the modified builder"]
    pub fn unbounded(mut self) -> PoolConfigBuilder {
        self.cfg.frames = None;
        self
    }

    /// Sets the replacement policy for unpinned frames.
    #[must_use = "returns the modified builder"]
    pub fn policy(mut self, policy: EvictionPolicy) -> PoolConfigBuilder {
        self.cfg.policy = policy;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> PoolConfig {
        self.cfg
    }
}

/// Deterministic paging counters of one [`BufferPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Pages read from disk (pool misses).
    pub page_reads: u64,
    /// Pin requests served from a resident frame.
    pub pool_hits: u64,
    /// Frames whose page was replaced to make room.
    pub evictions: u64,
    /// High-water mark of simultaneously pinned frames.
    pub pinned_peak: u64,
    /// Page reads re-issued after an injected error or checksum mismatch
    /// (bounded per read by [`PageStore::max_retries`]).
    pub storage_retries: u64,
    /// Page reads whose bytes failed checksum verification (torn pages a
    /// v2+ file's table caught; always 0 for v1 files).
    pub checksum_failures: u64,
    /// Distinct pages whose retries were exhausted and that were
    /// recovered through the store's clean path — each counted once, on
    /// first quarantine.
    pub quarantined_pages: u64,
}

impl PagingStats {
    /// Fraction of pin requests served without a disk read (`0.0` before
    /// the first request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.page_reads + self.pool_hits;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// One resident page frame.
struct Frame {
    page_no: u64,
    data: Arc<[u8]>,
    pins: u32,
    /// Reference bit (second-chance / CLOCK).
    referenced: bool,
    /// Monotone use stamp: recency for LRU, queue position for
    /// second-chance.
    stamp: u64,
}

/// Mutable pool state behind the one pool lock.
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    hand: usize,
    tick: u64,
    pinned_now: u64,
    stats: PagingStats,
    /// Pages that exhausted their read retries and were recovered through
    /// the clean path — membership keeps the once-per-page count honest.
    quarantined: HashSet<u64>,
}

/// A pinned-page buffer pool over one paged CSR file: read-only (there is
/// no dirty path — the file is immutable once written), with pin/unpin
/// reference counting and a pluggable [`EvictionPolicy`].
///
/// All state lives behind one mutex; fetches are short (hash probe, or
/// one `pread` on a miss). Pinned frames are never evicted, so a
/// [`PinnedPage`]'s bytes stay valid for its whole lifetime; when every
/// frame is pinned the pool overcommits past the budget instead of
/// blocking (see [`PoolConfig::frames`]).
pub struct BufferPool {
    store: Box<dyn PageStore>,
    page_size: usize,
    num_pages: u64,
    budget: Option<usize>,
    policy: EvictionPolicy,
    /// Checksum table (one sum per data page) and the kernel the file's
    /// format version computes it with: [`page_checksum`] for v3, FNV-1a
    /// for v2. `None` for v1 files disables verification entirely.
    checksums: Option<(Arc<[u64]>, ChecksumFn)>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool over `file`, which must be exactly `num_pages` pages of
    /// `page_size` bytes.
    pub fn new(file: File, page_size: usize, num_pages: u64, cfg: PoolConfig) -> BufferPool {
        BufferPool::with_store(Box::new(file), page_size, num_pages, cfg, None)
    }

    /// A pool over an arbitrary [`PageStore`], optionally verifying every
    /// read against a per-page checksum table of [`page_checksum`] sums
    /// (the current format's).
    pub fn with_store(
        store: Box<dyn PageStore>,
        page_size: usize,
        num_pages: u64,
        cfg: PoolConfig,
        checksums: Option<Arc<[u64]>>,
    ) -> BufferPool {
        let checksums = checksums.map(|t| (t, page_checksum as ChecksumFn));
        BufferPool::with_kernel(store, page_size, num_pages, cfg, checksums)
    }

    fn with_kernel(
        store: Box<dyn PageStore>,
        page_size: usize,
        num_pages: u64,
        cfg: PoolConfig,
        checksums: Option<(Arc<[u64]>, ChecksumFn)>,
    ) -> BufferPool {
        BufferPool {
            store,
            page_size,
            num_pages,
            budget: cfg.frames().map(|f| f.max(1)),
            policy: cfg.policy(),
            checksums,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                tick: 0,
                pinned_now: 0,
                stats: PagingStats::default(),
                quarantined: HashSet::new(),
            }),
        }
    }

    /// Whether reads are verified against a checksum table (v2+ files).
    pub fn verifies_checksums(&self) -> bool {
        self.checksums.is_some()
    }

    /// Verifies one page's bytes against the table (vacuously true
    /// without one, or for the table's own pages, which sit past its
    /// coverage).
    fn page_ok(&self, page_no: u64, buf: &[u8]) -> bool {
        match &self.checksums {
            Some((t, kernel)) => t
                .get(page_no as usize)
                .is_none_or(|&want| kernel(buf) == want),
            None => true,
        }
    }

    /// The pool's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages in the underlying file.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Snapshot of the paging counters.
    pub fn stats(&self) -> PagingStats {
        self.lock().stats
    }

    /// Resets the paging counters (resident frames are kept).
    pub fn reset_stats(&self) {
        self.lock().stats = PagingStats::default();
    }

    /// Poison-tolerant lock: pool state is valid at every instant (counters
    /// and maps are updated atomically under the lock), so a panicking
    /// reader never invalidates it for others — same recovery discipline
    /// as the L2 shard locks.
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins `page_no`, reading it from disk if not resident, and returns
    /// the guard. The frame cannot be evicted until the guard drops.
    pub fn pin(&self, page_no: u64) -> io::Result<PinnedPage<'_>> {
        assert!(
            page_no < self.num_pages,
            "page {page_no} out of range (file has {} pages)",
            self.num_pages
        );
        let mut inner = self.lock();
        if let Some(&slot) = inner.map.get(&page_no) {
            inner.stats.pool_hits += 1;
            inner.tick += 1;
            let tick = inner.tick;
            let f = &mut inner.frames[slot];
            f.referenced = true;
            f.stamp = tick;
            f.pins += 1;
            let data = Arc::clone(&f.data);
            inner.pinned_now += 1;
            inner.stats.pinned_peak = inner.stats.pinned_peak.max(inner.pinned_now);
            return Ok(PinnedPage {
                pool: self,
                slot,
                data,
            });
        }

        // Miss: read the page (verified and retried against a faulty
        // store), then place it in a frame.
        inner.stats.page_reads += 1;
        let mut buf = vec![0u8; self.page_size];
        let max_retries = self.store.max_retries();
        let mut attempt = 0u32;
        loop {
            let ok = match self.store.read_page(page_no, &mut buf, attempt) {
                Ok(()) => {
                    let good = self.page_ok(page_no, &buf);
                    if !good {
                        inner.stats.checksum_failures += 1;
                    }
                    good
                }
                Err(_) => false,
            };
            if ok {
                break;
            }
            if attempt >= max_retries {
                // Retries exhausted: recover through the store's
                // fault-free path and quarantine the page (counted once).
                // Only a real I/O failure still escapes to the caller.
                self.store.read_page_clean(page_no, &mut buf)?;
                if inner.quarantined.insert(page_no) {
                    inner.stats.quarantined_pages += 1;
                }
                break;
            }
            attempt += 1;
            inner.stats.storage_retries += 1;
        }
        let data: Arc<[u8]> = Arc::from(buf);

        let slot = match self.budget {
            Some(budget) if inner.frames.len() >= budget => match self.pick_victim(&mut inner) {
                Some(victim) => {
                    inner.stats.evictions += 1;
                    let old = inner.frames[victim].page_no;
                    inner.map.remove(&old);
                    victim
                }
                // Every frame is pinned: overcommit rather than deadlock.
                None => push_frame(&mut inner),
            },
            _ => push_frame(&mut inner),
        };

        inner.tick += 1;
        let tick = inner.tick;
        let f = &mut inner.frames[slot];
        f.page_no = page_no;
        f.data = Arc::clone(&data);
        f.pins = 1;
        f.referenced = true;
        f.stamp = tick;
        inner.map.insert(page_no, slot);
        inner.pinned_now += 1;
        inner.stats.pinned_peak = inner.stats.pinned_peak.max(inner.pinned_now);
        Ok(PinnedPage {
            pool: self,
            slot,
            data,
        })
    }

    /// Picks an unpinned victim frame per the configured policy, or `None`
    /// when every frame is pinned.
    fn pick_victim(&self, inner: &mut PoolInner) -> Option<usize> {
        if !inner.frames.iter().any(|f| f.pins == 0) {
            return None;
        }
        match self.policy {
            EvictionPolicy::Lru => inner
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.pins == 0)
                .min_by_key(|(_, f)| f.stamp)
                .map(|(i, _)| i),
            EvictionPolicy::SecondChance => {
                // FIFO by stamp; a referenced head is re-queued (stamp
                // bumped, bit cleared). Each pass clears one bit, so at
                // most 2 × frames iterations reach an unreferenced frame.
                loop {
                    let head = inner
                        .frames
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| f.pins == 0)
                        .min_by_key(|(_, f)| f.stamp)
                        .map(|(i, _)| i)
                        .expect("an unpinned frame exists");
                    if inner.frames[head].referenced {
                        inner.frames[head].referenced = false;
                        inner.tick += 1;
                        inner.frames[head].stamp = inner.tick;
                    } else {
                        return Some(head);
                    }
                }
            }
            EvictionPolicy::Clock => {
                // After one full sweep every unpinned frame's bit is
                // clear, so the second sweep must stop.
                let len = inner.frames.len();
                loop {
                    let i = inner.hand % len;
                    inner.hand = (inner.hand + 1) % len;
                    let f = &mut inner.frames[i];
                    if f.pins > 0 {
                        continue;
                    }
                    if f.referenced {
                        f.referenced = false;
                    } else {
                        return Some(i);
                    }
                }
            }
        }
    }

    fn unpin(&self, slot: usize) {
        let mut inner = self.lock();
        let f = &mut inner.frames[slot];
        debug_assert!(f.pins > 0, "unpin without a pin");
        f.pins -= 1;
        inner.pinned_now -= 1;
    }
}

/// Appends an empty frame slot and returns its index.
fn push_frame(inner: &mut PoolInner) -> usize {
    inner.frames.push(Frame {
        page_no: u64::MAX,
        data: Arc::from(Vec::new()),
        pins: 0,
        referenced: false,
        stamp: 0,
    });
    inner.frames.len() - 1
}

/// A pinned page: the frame stays resident (never evicted) until this
/// guard drops. Dereferences to the page's bytes.
pub struct PinnedPage<'p> {
    pool: &'p BufferPool,
    slot: usize,
    data: Arc<[u8]>,
}

impl std::ops::Deref for PinnedPage<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.slot);
    }
}

/// Validated header of an open paged CSR file.
#[derive(Clone, Copy, Debug)]
struct Header {
    page_size: u64,
    num_nodes: u64,
    adjacency_len: u64,
    num_labels: u64,
    label_data_len: u64,
    max_degree: u64,
    neighbor_offsets_page: u64,
    adjacency_page: u64,
    label_offsets_page: u64,
    label_data_page: u64,
    total_pages: u64,
    /// First page of the checksum table (0 for v1 files, which have
    /// none — page 0 is always the header, so 0 is unambiguous).
    checksum_page: u64,
}

/// A read-only out-of-core [`LabeledGraph`] view: the paged CSR file
/// behind a [`BufferPool`]. Lists are assembled by pinning the page(s)
/// they span, copying, and unpinning — memory residency is bounded by the
/// pool's frame budget, not by graph size.
///
/// `Sync`: all mutability is inside the pool's lock, so one `PagedGraph`
/// can sit under many concurrent reader stacks. I/O errors after a
/// successful `open` indicate a truncated or vanished file and panic —
/// the read path mirrors the in-RAM graph's infallible accessors.
pub struct PagedGraph {
    pool: BufferPool,
    header: Header,
}

impl PagedGraph {
    /// Opens and validates a file written by [`PagedCsrWriter`] in the
    /// current format or an older one (v2 files are verified with their
    /// FNV-1a table; v1 files carry no table, so read verification is
    /// inert for them). A header page that fails its checksum is a
    /// [`PagedError::Format`].
    pub fn open(path: &Path, cfg: PoolConfig) -> Result<PagedGraph, PagedError> {
        PagedGraph::open_inner(path, cfg, None)
    }

    /// Opens like [`PagedGraph::open`], but serves page reads through a
    /// [`FaultyStorage`] injecting the configured seeded faults. Against
    /// a v2+ file the checksum table catches torn reads; read errors and
    /// mismatches are retried and, past the retry budget, recovered
    /// through the clean path and quarantined — so the *returned bytes*
    /// are identical to a fault-free open, with the damage visible only
    /// in [`PagingStats`].
    pub fn open_with_faults(
        path: &Path,
        cfg: PoolConfig,
        faults: StorageFaultConfig,
    ) -> Result<PagedGraph, PagedError> {
        PagedGraph::open_inner(path, cfg, Some(faults))
    }

    fn open_inner(
        path: &Path,
        cfg: PoolConfig,
        faults: Option<StorageFaultConfig>,
    ) -> Result<PagedGraph, PagedError> {
        let file = File::open(path)?;
        let mut head = [0u8; HEADER_BYTES];
        file.read_exact_at(&mut head, 0)?;
        let u32_at = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
        let u64_at = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().expect("8 bytes"));
        if head[0..8] != PAGED_MAGIC {
            return Err(PagedError::Format("bad magic".into()));
        }
        let version = u32_at(8);
        if !(1..=PAGED_FORMAT_VERSION).contains(&version) {
            return Err(PagedError::Format(format!(
                "unsupported format version {version} (expected 1 to {PAGED_FORMAT_VERSION})"
            )));
        }
        let kernel = checksum_kernel(version);
        let page_size = u32_at(12);
        if !page_size.is_power_of_two() || page_size < MIN_PAGE_SIZE {
            return Err(PagedError::Format(format!("bad page size {page_size}")));
        }
        let header = Header {
            page_size: page_size as u64,
            num_nodes: u64_at(16),
            adjacency_len: u64_at(24),
            num_labels: u64_at(32),
            label_data_len: u64_at(40),
            max_degree: u64_at(48),
            neighbor_offsets_page: u64_at(56),
            adjacency_page: u64_at(64),
            label_offsets_page: u64_at(72),
            label_data_page: u64_at(80),
            total_pages: u64_at(88),
            checksum_page: if kernel.is_some() { u64_at(96) } else { 0 },
        };
        if header.num_nodes > 0 && u32::try_from(header.num_nodes - 1).is_err() {
            return Err(PagedError::Format("node count exceeds u32 id space".into()));
        }
        let actual = file.metadata()?.len();
        let expect = header.total_pages.checked_mul(header.page_size);
        if expect != Some(actual) {
            return Err(PagedError::Format(format!(
                "file is {actual} bytes, header declares {} pages of {}",
                header.total_pages, header.page_size
            )));
        }
        // Every header field is untrusted, so the layout arithmetic is
        // checked: an overflow is a corrupt file, never a wrapped value
        // that happens to line up.
        let pages_of = |entries: u64, width: u64| {
            entries
                .checked_mul(width)
                .map(|bytes| bytes.div_ceil(header.page_size).max(1))
        };
        let follows = |start: u64, entries: u64, width: u64| {
            pages_of(entries, width).and_then(|pages| start.checked_add(pages))
        };
        let data_pages = follows(header.label_data_page, header.label_data_len, 4);
        let layout_ok = header.neighbor_offsets_page == 1
            && Some(header.adjacency_page) == follows(1, header.num_nodes + 1, 8)
            && Some(header.label_offsets_page)
                == follows(header.adjacency_page, header.adjacency_len, 4)
            && Some(header.label_data_page)
                == follows(header.label_offsets_page, header.num_nodes + 1, 8)
            && if kernel.is_some() {
                data_pages == Some(header.checksum_page)
                    && Some(header.total_pages)
                        == follows(header.checksum_page, header.checksum_page, 8)
            } else {
                data_pages == Some(header.total_pages)
            };
        if !layout_ok {
            return Err(PagedError::Format("inconsistent section layout".into()));
        }
        // v2+: load the whole checksum table up front (8 bytes per data
        // page — a 0.2% overhead at the default page size) through plain
        // reads, outside any fault injection, and check the header page
        // against its entry: the header was read before the table could
        // vouch for it.
        let checksums = match kernel {
            Some(kernel) => {
                let mut raw = vec![0u8; (header.checksum_page * 8) as usize];
                file.read_exact_at(&mut raw, header.checksum_page * header.page_size)?;
                let table: Arc<[u64]> = raw.chunks_exact(8).map(le_u64).collect();
                let mut page0 = vec![0u8; page_size as usize];
                file.read_exact_at(&mut page0, 0)?;
                if table.first() != Some(&kernel(&page0)) {
                    return Err(PagedError::Format("header page fails its checksum".into()));
                }
                Some((table, kernel))
            }
            None => None,
        };
        let store: Box<dyn PageStore> = match faults {
            Some(f) => Box::new(FaultyStorage::new(file, f)),
            None => Box::new(file),
        };
        let pool = BufferPool::with_kernel(
            store,
            page_size as usize,
            header.total_pages,
            cfg,
            checksums,
        );
        Ok(PagedGraph { pool, header })
    }

    /// Number of nodes `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.header.num_nodes as usize
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        (self.header.adjacency_len / 2) as usize
    }

    /// Number of distinct label ids (`max id + 1`).
    pub fn num_labels(&self) -> usize {
        self.header.num_labels as usize
    }

    /// The exact maximum degree, recorded at write time.
    pub fn max_degree(&self) -> usize {
        self.header.max_degree as usize
    }

    /// The file's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.header.page_size as usize
    }

    /// Snapshot of the pool's paging counters.
    pub fn paging_stats(&self) -> PagingStats {
        self.pool.stats()
    }

    /// Resets the pool's paging counters.
    pub fn reset_paging_stats(&self) {
        self.pool.reset_stats()
    }

    /// The underlying buffer pool (for probes and tests).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Degree `d(u)` — two offset-entry reads, no list assembly.
    pub fn degree(&self, u: NodeId) -> usize {
        let (start, end) = self.offset_pair(self.header.neighbor_offsets_page, u);
        (end - start) as usize
    }

    /// The sorted neighbor list of `u`, assembled from the page(s) it
    /// spans.
    pub fn neighbors(&self, u: NodeId) -> Arc<[NodeId]> {
        let (start, end) = self.offset_pair(self.header.neighbor_offsets_page, u);
        let bytes = self.read_span(
            self.header.adjacency_page,
            start * 4,
            ((end - start) * 4) as usize,
        );
        decode_u32s(&bytes, NodeId)
    }

    /// The sorted label list of `u`.
    pub fn labels(&self, u: NodeId) -> Arc<[LabelId]> {
        let (start, end) = self.offset_pair(self.header.label_offsets_page, u);
        let bytes = self.read_span(
            self.header.label_data_page,
            start * 4,
            ((end - start) * 4) as usize,
        );
        decode_u32s(&bytes, LabelId)
    }

    /// Reads the `(offsets[u], offsets[u+1])` pair from an offsets
    /// section — 16 contiguous bytes, at most two pages.
    fn offset_pair(&self, section_page: u64, u: NodeId) -> (u64, u64) {
        assert!(
            (u.index() as u64) < self.header.num_nodes,
            "node {u} out of range"
        );
        let bytes = self.read_span(section_page, u.index() as u64 * 8, 16);
        let lo = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        (lo, hi)
    }

    /// Copies `len` bytes starting `start_byte` bytes into the section
    /// that begins at `section_page`. Pins every spanned page for the
    /// whole copy (the fetch's working set), then releases them.
    fn read_span(&self, section_page: u64, start_byte: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if len == 0 {
            return out;
        }
        let ps = self.header.page_size;
        let abs = section_page * ps + start_byte;
        let first_page = abs / ps;
        let last_page = (abs + len as u64 - 1) / ps;
        let pins: Vec<PinnedPage<'_>> = (first_page..=last_page)
            .map(|p| self.pool.pin(p).expect("paged CSR read failed"))
            .collect();
        let mut copied = 0usize;
        let mut pos = abs;
        for pin in &pins {
            let in_page = (pos % ps) as usize;
            let take = (self.page_size() - in_page).min(len - copied);
            out[copied..copied + take].copy_from_slice(&pin[in_page..in_page + take]);
            copied += take;
            pos += take as u64;
        }
        debug_assert_eq!(copied, len);
        out
    }
}

/// Decodes little-endian `u32`s into ids.
fn decode_u32s<T>(bytes: &[u8], wrap: impl Fn(u32) -> T) -> Arc<[T]> {
    let v: Vec<T> = bytes
        .chunks_exact(4)
        .map(|c| wrap(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
        .collect();
    Arc::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("labelcount_paged_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{tag}_{}_{}.lcp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn fixture() -> LabeledGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(2), NodeId(3));
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.set_labels(NodeId(1), &[LabelId(2)]);
        b.set_labels(NodeId(2), &[LabelId(1), LabelId(2)]);
        // Node 4 is isolated and unlabeled.
        b.build()
    }

    fn roundtrip(g: &LabeledGraph, page_size: u32, cfg: PoolConfig, tag: &str) -> PagedGraph {
        let path = temp_file(tag);
        PagedCsrWriter::with_page_size(page_size)
            .write(g, &path)
            .unwrap();
        PagedGraph::open(&path, cfg).unwrap()
    }

    fn assert_matches(g: &LabeledGraph, p: &PagedGraph) {
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert_eq!(p.num_edges(), g.num_edges());
        assert_eq!(p.num_labels(), g.num_labels());
        for u in g.nodes() {
            assert_eq!(p.degree(u), g.degree(u), "degree of {u}");
            assert_eq!(&*p.neighbors(u), g.neighbors(u), "neighbors of {u}");
            assert_eq!(&*p.labels(u), g.labels(u), "labels of {u}");
        }
    }

    #[test]
    fn roundtrip_matches_in_ram_graph() {
        let g = fixture();
        let p = roundtrip(&g, 128, PoolConfig::unbounded(), "roundtrip");
        assert_matches(&g, &p);
        assert_eq!(p.max_degree(), 3);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new(0).build();
        let p = roundtrip(&g, 128, PoolConfig::unbounded(), "empty");
        assert_eq!(p.num_nodes(), 0);
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.max_degree(), 0);
    }

    #[test]
    fn adjacency_straddles_page_boundaries() {
        // A 128-byte page holds 32 adjacency entries; a 100-neighbor star
        // center spans four pages.
        let n = 101;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(NodeId(0), NodeId(v));
        }
        let g = b.build();
        for cfg in [
            PoolConfig::unbounded(),
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            PoolConfig::bounded(2, EvictionPolicy::SecondChance),
            PoolConfig::bounded(3, EvictionPolicy::Clock),
        ] {
            let p = roundtrip(&g, 128, cfg, "straddle");
            assert_matches(&g, &p);
            // The 100-entry center list spans multiple pinned pages at
            // once; the pool must have recorded that working set.
            assert!(p.paging_stats().pinned_peak >= 2, "cfg {cfg:?}");
        }
    }

    #[test]
    fn every_policy_returns_identical_bytes_at_every_budget() {
        let g = fixture();
        for policy in EvictionPolicy::all() {
            for frames in [1usize, 2, 7] {
                let p = roundtrip(
                    &g,
                    128,
                    PoolConfig::bounded(frames, policy),
                    "policy_budget",
                );
                assert_matches(&g, &p);
            }
        }
    }

    #[test]
    fn tight_pool_evicts_and_unbounded_never_does() {
        let g = fixture();
        let tight = roundtrip(
            &g,
            128,
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            "tight",
        );
        assert_matches(&g, &tight);
        let s = tight.paging_stats();
        assert!(s.evictions > 0, "a 1-frame pool must evict: {s:?}");
        assert!(
            s.page_reads > tight.pool.num_pages(),
            "pages re-read: {s:?}"
        );

        let unbounded = roundtrip(&g, 128, PoolConfig::unbounded(), "unbounded");
        assert_matches(&g, &unbounded);
        let s = unbounded.paging_stats();
        assert_eq!(s.evictions, 0);
        // Every touched page read exactly once.
        assert!(s.page_reads <= unbounded.pool.num_pages());
        assert!(s.pool_hits > 0);
    }

    #[test]
    fn paging_counters_are_deterministic_under_serial_access() {
        let g = fixture();
        let run = || {
            let p = roundtrip(
                &g,
                128,
                PoolConfig::bounded(2, EvictionPolicy::Clock),
                "det",
            );
            for u in g.nodes() {
                let _ = p.neighbors(u);
                let _ = p.labels(u);
            }
            p.paging_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_frames() {
        let g = fixture();
        let p = roundtrip(&g, 128, PoolConfig::unbounded(), "reset");
        let _ = p.neighbors(NodeId(0));
        assert!(p.paging_stats().page_reads > 0);
        p.reset_paging_stats();
        assert_eq!(p.paging_stats(), PagingStats::default());
        let _ = p.neighbors(NodeId(0));
        // Frames survived the reset: the re-read is a pure hit.
        assert_eq!(p.paging_stats().page_reads, 0);
        assert!(p.paging_stats().pool_hits > 0);
    }

    #[test]
    fn open_rejects_corrupt_files() {
        let g = fixture();
        let path = temp_file("corrupt");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();

        // Bad magic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        let bad = temp_file("bad_magic");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            PagedGraph::open(&bad, PoolConfig::unbounded()),
            Err(PagedError::Format(_))
        ));

        // Bad version.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99;
        let bad = temp_file("bad_version");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            PagedGraph::open(&bad, PoolConfig::unbounded()),
            Err(PagedError::Format(_))
        ));

        // Truncated file.
        let bytes = std::fs::read(&path).unwrap();
        let bad = temp_file("truncated");
        std::fs::write(&bad, &bytes[..bytes.len() - 64]).unwrap();
        assert!(matches!(
            PagedGraph::open(&bad, PoolConfig::unbounded()),
            Err(PagedError::Format(_))
        ));

        // Header fields whose layout arithmetic overflows, in the current
        // format and in v1 (whose header no checksum covers). 2^62 + the
        // real adjacency length wraps back onto the real layout when
        // multiplied by the 4-byte entry width.
        let adjacency_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let huge = [1u64 << 62, (1 << 63) - 1, u64::MAX];
        let mut fields: Vec<(usize, u64)> = Vec::new();
        for offset in [24, 40, 88] {
            fields.extend(huge.map(|v| (offset, v)));
        }
        fields.extend([
            (24, (1 << 62) + adjacency_len),
            (56, u64::MAX),
            (80, u64::MAX),
        ]);
        for source in [path.clone(), downgrade_to_v1(&path, "overflow_v1")] {
            for &(offset, value) in &fields {
                let mut bytes = std::fs::read(&source).unwrap();
                bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
                let bad = temp_file("overflow");
                std::fs::write(&bad, &bytes).unwrap();
                assert!(
                    matches!(
                        PagedGraph::open(&bad, PoolConfig::unbounded()),
                        Err(PagedError::Format(_))
                    ),
                    "header field at {offset} = {value} must be rejected"
                );
            }
        }
    }

    #[test]
    fn header_page_is_verified_at_open() {
        let g = fixture();
        let path = temp_file("header_sum");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let flip_max_degree = |src: &PathBuf, tag: &str| {
            let mut bytes = std::fs::read(src).unwrap();
            bytes[48] ^= 0x40;
            let out = temp_file(tag);
            std::fs::write(&out, &bytes).unwrap();
            out
        };
        assert!(matches!(
            PagedGraph::open(
                &flip_max_degree(&path, "header_flip"),
                PoolConfig::unbounded()
            ),
            Err(PagedError::Format(_))
        ));
        // v1 files carry no table, so their header still opens unverified.
        let v1 = downgrade_to_v1(&path, "header_v1");
        let p = PagedGraph::open(
            &flip_max_degree(&v1, "header_v1_flip"),
            PoolConfig::unbounded(),
        )
        .unwrap();
        assert_eq!(p.max_degree(), 3 ^ 0x40);
    }

    #[test]
    fn page_checksum_matches_the_published_xxh64_vectors() {
        let counting = |n: usize| (0..n).map(|i| i as u8).collect::<Vec<u8>>();
        for (input, want) in [
            (Vec::new(), 0xef46_db37_51d8_e999u64),
            (b"abc".to_vec(), 0x44bc_2cf5_ad77_0999),
            (counting(128), 0x7a7f_e146_47b9_ab92),
            (counting(4096), 0x0f6e_64be_186a_f6a4),
            (vec![0u8; 4096], 0xac86_9b6f_32d8_bbdb),
        ] {
            assert_eq!(
                page_checksum(&input),
                want,
                "XXH64 of a {}-byte input",
                input.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_byte_change_changes_both_kernels(
            page in proptest::collection::vec(proptest::prelude::any::<u8>(), 128..4097),
            at in proptest::prelude::any::<usize>(),
            delta in 1u8..=255,
        ) {
            let mut changed = page.clone();
            changed[at % page.len()] ^= delta;
            for kernel in [page_checksum as ChecksumFn, fnv1a_page] {
                proptest::prop_assert_ne!(kernel(&page), kernel(&changed));
            }
        }
    }

    #[test]
    fn writer_rejects_bad_page_sizes() {
        for bad in [0u32, 64, 100, 129] {
            let caught = std::panic::catch_unwind(|| PagedCsrWriter::with_page_size(bad));
            assert!(caught.is_err(), "page size {bad} must be rejected");
        }
    }

    #[test]
    fn eviction_policy_names_roundtrip() {
        for p in EvictionPolicy::all() {
            assert_eq!(EvictionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(EvictionPolicy::parse("fifo"), None);
    }

    /// Rewrites a current-format file as its v1 equivalent: drop the
    /// checksum table, stamp version 1, and shrink `total_pages` back to
    /// the data pages — exactly what a file written before v2 looks like.
    fn downgrade_to_v1(path: &PathBuf, tag: &str) -> PathBuf {
        let mut bytes = std::fs::read(path).unwrap();
        let page_size = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as u64;
        let checksum_page = u64::from_le_bytes(bytes[96..104].try_into().unwrap());
        bytes.truncate((checksum_page * page_size) as usize);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[88..96].copy_from_slice(&checksum_page.to_le_bytes());
        bytes[96..104].fill(0);
        let out = temp_file(tag);
        std::fs::write(&out, &bytes).unwrap();
        out
    }

    #[test]
    fn v1_files_without_checksums_still_open_and_match() {
        let g = fixture();
        let path = temp_file("v1_src");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let v1 = downgrade_to_v1(&path, "v1");
        let p = PagedGraph::open(&v1, PoolConfig::unbounded()).unwrap();
        assert!(!p.pool().verifies_checksums());
        assert_matches(&g, &p);
        // And the faulty opener still works (retries fire on read errors
        // even without a table; torn pages are simply invisible).
        let p = PagedGraph::open_with_faults(
            &v1,
            PoolConfig::unbounded(),
            StorageFaultConfig::clean(7),
        )
        .unwrap();
        assert_matches(&g, &p);
    }

    /// The bytes of a current-format file restamped as `version`, with
    /// its checksum table recomputed by `kernel` — with version 2 and
    /// FNV-1a, exactly what a file written before v3 looks like.
    fn restamp(path: &PathBuf, version: u32, kernel: ChecksumFn) -> Vec<u8> {
        let mut bytes = std::fs::read(path).unwrap();
        let page_size = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let checksum_page = u64::from_le_bytes(bytes[96..104].try_into().unwrap()) as usize;
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        for page in 0..checksum_page {
            let sum = kernel(&bytes[page * page_size..][..page_size]);
            let entry = checksum_page * page_size + page * 8;
            bytes[entry..entry + 8].copy_from_slice(&sum.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn v2_files_verify_with_fnv_and_the_version_picks_the_kernel() {
        let g = fixture();
        let path = temp_file("v2_src");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let v2 = temp_file("v2");
        std::fs::write(&v2, restamp(&path, 2, fnv1a_page)).unwrap();
        let p = PagedGraph::open(&v2, PoolConfig::bounded(2, EvictionPolicy::Lru)).unwrap();
        assert!(p.pool().verifies_checksums());
        assert_matches(&g, &p);
        assert_eq!(p.paging_stats().checksum_failures, 0);

        // The same FNV-1a table under version 3 fails: at open on the
        // header page, and — once the header's entry is made to pass — on
        // every data page read.
        let mut bytes = restamp(&path, 3, fnv1a_page);
        let fnv_v3 = temp_file("v3_fnv");
        std::fs::write(&fnv_v3, &bytes).unwrap();
        assert!(matches!(
            PagedGraph::open(&fnv_v3, PoolConfig::unbounded()),
            Err(PagedError::Format(_))
        ));
        let checksum_page = u64::from_le_bytes(bytes[96..104].try_into().unwrap()) as usize;
        let header_sum = page_checksum(&bytes[..128]);
        bytes[checksum_page * 128..][..8].copy_from_slice(&header_sum.to_le_bytes());
        std::fs::write(&fnv_v3, &bytes).unwrap();
        let p = PagedGraph::open(&fnv_v3, PoolConfig::bounded(2, EvictionPolicy::Lru)).unwrap();
        assert_matches(&g, &p);
        let s = p.paging_stats();
        assert!(s.page_reads > 0);
        assert_eq!(s.checksum_failures, s.page_reads, "{s:?}");
    }

    #[test]
    fn checksum_writer_sums_pages_split_across_writes() {
        let data: Vec<u8> = (0..128 * 9).map(|i| (i * 7 % 251) as u8).collect();
        let want: Vec<u64> = data.chunks(128).map(page_checksum).collect();
        for chunk in [1, 5, 127, 128, 129, 300, data.len()] {
            let mut w = ChecksumWriter::new(Vec::new(), 128);
            for c in data.chunks(chunk) {
                w.write_all(c).unwrap();
            }
            let (out, sums) = w.finish();
            assert_eq!(out, data, "chunk size {chunk}");
            assert_eq!(sums, want, "chunk size {chunk}");
        }
    }

    #[test]
    fn v3_files_carry_a_checksum_per_data_page() {
        let g = fixture();
        let path = temp_file("v3_sums");
        let meta = PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);
        let checksum_page = u64::from_le_bytes(bytes[96..104].try_into().unwrap());
        assert!(checksum_page > 0 && checksum_page < meta.total_pages);
        for page in 0..checksum_page {
            let start = (page * 128) as usize;
            let want = u64::from_le_bytes(
                bytes[(checksum_page * 128) as usize + page as usize * 8..][..8]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(
                page_checksum(&bytes[start..start + 128]),
                want,
                "checksum of page {page}"
            );
        }
    }

    #[test]
    fn faulty_storage_returns_clean_bytes_and_counts_the_damage() {
        let g = fixture();
        let path = temp_file("faulty");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let p = PagedGraph::open_with_faults(
            &path,
            PoolConfig::unbounded(),
            StorageFaultConfig {
                seed: 42,
                read_error_rate: 0.3,
                torn_page_rate: 0.3,
                max_retries: 3,
            },
        )
        .unwrap();
        // Despite errors and torn reads, every list matches the source —
        // verification + retry + quarantine absorb all injected damage.
        assert_matches(&g, &p);
        let s = p.paging_stats();
        assert!(
            s.storage_retries > 0,
            "faults at 0.3 must trigger retries: {s:?}"
        );
        assert!(s.checksum_failures > 0, "torn pages must be caught: {s:?}");
    }

    #[test]
    fn exhausted_retries_quarantine_once_per_page() {
        let g = fixture();
        let path = temp_file("quarantine");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        // Every read attempt fails ⇒ every touched page exhausts its
        // budget and lands in quarantine, exactly once.
        let p = PagedGraph::open_with_faults(
            &path,
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            StorageFaultConfig {
                seed: 9,
                read_error_rate: 1.0,
                torn_page_rate: 0.0,
                max_retries: 1,
            },
        )
        .unwrap();
        assert_matches(&g, &p);
        let s = p.paging_stats();
        assert!(s.quarantined_pages > 0);
        assert!(
            s.quarantined_pages <= p.pool().num_pages(),
            "quarantine is once per page even when a 1-frame pool re-reads: {s:?}"
        );
        assert_eq!(
            s.storage_retries, s.page_reads,
            "one retry per read at budget 1"
        );
    }

    #[test]
    fn clean_faulty_storage_is_identical_to_plain_file() {
        let g = fixture();
        let path = temp_file("clean_ident");
        PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let walk = |p: &PagedGraph| {
            for u in g.nodes() {
                let _ = p.neighbors(u);
                let _ = p.labels(u);
            }
            p.paging_stats()
        };
        let plain = PagedGraph::open(&path, PoolConfig::bounded(2, EvictionPolicy::Clock)).unwrap();
        let faulty = PagedGraph::open_with_faults(
            &path,
            PoolConfig::bounded(2, EvictionPolicy::Clock),
            StorageFaultConfig::clean(123),
        )
        .unwrap();
        assert_eq!(walk(&plain), walk(&faulty), "rate-0 faults must be free");
        assert_eq!(plain.paging_stats().storage_retries, 0);
        assert_eq!(plain.paging_stats().quarantined_pages, 0);
    }

    /// A store that panics once mid-read *while the pool lock is held* —
    /// the regression test for the pool's `PoisonError::into_inner`
    /// recovery: one panicking reader must not take the pool down for
    /// every later pin.
    struct PanickyStore {
        file: File,
        panic_once: std::sync::atomic::AtomicBool,
    }

    impl PageStore for PanickyStore {
        fn read_page(&self, page_no: u64, buf: &mut [u8], attempt: u32) -> io::Result<()> {
            if self.panic_once.swap(false, Ordering::SeqCst) {
                panic!("injected panic inside a page read");
            }
            self.file.read_page(page_no, buf, attempt)
        }

        fn read_page_clean(&self, page_no: u64, buf: &mut [u8]) -> io::Result<()> {
            self.file.read_exact_at(buf, page_no * buf.len() as u64)
        }
    }

    #[test]
    fn pool_lock_recovers_after_a_panicking_read() {
        let g = fixture();
        let path = temp_file("poison");
        let meta = PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let pool = BufferPool::with_store(
            Box::new(PanickyStore {
                file: File::open(&path).unwrap(),
                panic_once: std::sync::atomic::AtomicBool::new(true),
            }),
            128,
            meta.total_pages,
            PoolConfig::unbounded(),
            None,
        );
        // The panic unwinds out of pin() while the pool mutex is held,
        // poisoning it.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.pin(1)));
        assert!(unwound.is_err(), "the injected panic must escape pin()");
        // Recovery: the next pin takes the poisoned lock, reads the page,
        // and the counters are coherent (the panicked read was counted
        // before the panic; no pin leaked).
        let pin = pool.pin(1).expect("pool must survive a poisoned lock");
        assert_eq!(pin.len(), 128);
        drop(pin);
        let s = pool.stats();
        assert_eq!(s.page_reads, 2);
        assert_eq!(pool.stats().pinned_peak, 1, "the unwound pin must not leak");
    }

    #[test]
    fn meta_reports_the_real_file_size() {
        let g = fixture();
        let path = temp_file("meta");
        let meta = PagedCsrWriter::with_page_size(256)
            .write(&g, &path)
            .unwrap();
        assert_eq!(meta.page_size, 256);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            meta.file_bytes,
            "writer meta must match the bytes on disk"
        );
        assert_eq!(meta.file_bytes, meta.total_pages * 256);
    }
}
