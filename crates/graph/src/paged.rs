//! Out-of-core graphs: a fixed-size-page on-disk record layout plus the
//! pinned-page buffer pool that serves it.
//!
//! Every graph in the workspace so far lives fully in RAM. This module is
//! the out-of-core escape hatch: [`PagedCsrWriter`] serializes any
//! [`LabeledGraph`] into a page-aligned binary file, and [`PagedGraph`]
//! reads it back **page at a time** through a classic database-style
//! [`BufferPool`] — pin, decode, unpin — so residency is bounded by the
//! configured frame budget, not by `|E|`.
//!
//! # File layout (version 4, all integers little-endian)
//!
//! ```text
//! page 0            header: magic "LCPGCSR\0", version, page size,
//!                   counts (nodes, adjacency entries, labels, label
//!                   entries, max degree), the first page of each
//!                   section below, the directory's entry count, and the
//!                   total page count
//! pages 1..         record pages      one record per node, in node order
//! pages ..          page directory    entries × (first node u32, page u32)
//! pages ..          checksum table    data_pages × u64 (XXH64)
//! ```
//!
//! A node's **record** is its degree and label count (u32 each), its
//! labels, then its neighbors (u32 ids). Records of consecutive nodes
//! share a **primary page** behind a slot array, the slotted page of the
//! database textbooks:
//!
//! ```text
//! first node u32 | slot count u32 | slot 0 .. slot k-1 (u32 each) | records .. | zero pad
//! ```
//!
//! Slot `i` is the in-page byte offset of node `first + i`'s record. The
//! writer packs records greedily in node order. A record too big for an
//! empty page starts its own primary page, alone, and runs on into the
//! **overflow pages** after it. So a fetch whose record fits one page
//! pins exactly one page, and labels come first so that a profile fetch
//! stays on the primary page even when the neighbors spill.
//!
//! The **page directory** holds one `(first node, page)` entry per
//! primary page, sorted by both. [`PagedGraph::open`] loads it whole and
//! keeps it in RAM, 8 bytes per primary page; a fetch binary-searches it
//! for the node's primary page. Each section starts on a page boundary
//! and is zero-padded to one.
//!
//! The **checksum table** holds one sum per *data* page (header, record
//! and directory pages; the table's own pages excluded). It is loaded
//! whole at open, when the header and directory pages are checked
//! against it. The pool verifies every page read against it, which is
//! what lets a faulty store ([`FaultyStorage`]) be survived: a failed or
//! torn read is retried up to [`PageStore::max_retries`] times, and a
//! page whose retries are exhausted is recovered through the store's
//! fault-free path and **quarantined** (counted once per page in
//! [`PagingStats`]). The sums catch torn and misdirected reads; they are
//! no defence against tampering. A re-summed file with bad record
//! metadata (a slot or a length pointing elsewhere) can yield wrong lists
//! or a panic with a message on the read path, but a fetch never reads
//! or allocates past its node's pages.
//!
//! # Version history
//!
//! Only the current version is written, and only it opens: a file of an
//! older version is a [`PagedError::Format`] naming that version. No
//! paged file outlives the build that wrote it — every caller writes its
//! own and deletes it.
//!
//! - **v1**: CSR in four sections (neighbor offsets, adjacency, label
//!   offsets, label data), no checksums.
//! - **v2**: v1 plus an FNV-1a-64 checksum table.
//! - **v3**: v2 with XXH64 sums ([`page_checksum`]). FNV-1a folds a page
//!   one byte at a time through one dependent multiply chain; XXH64
//!   reads 8-byte words into four independent lanes. On a 2-vCPU Xeon VM
//!   a 4 KiB page costs ~5.8 µs under FNV-1a and ~0.45 µs under XXH64.
//! - **v4** (current): slotted record pages behind the page directory.
//!   Under v3 a fetch pinned an offsets page and then a data page, and a
//!   node's neighbors and labels lived in different sections. One seed-1
//!   pass of servebench's `interactive-paged` workload (16 frames, 4 KiB
//!   pages) read 991 133 pages under v3 and 495 962 under v4. One offset
//!   table over per-node records would have saved only 6–10%: few
//!   profile fetches directly follow the same node's neighbor fetch.
//!
//! # Determinism
//!
//! The pool only changes *where* bytes come from, never which bytes a
//! reader sees: at any frame budget — even one forcing an eviction per
//! fetch — [`PagedGraph::neighbors`] and [`PagedGraph::labels`] return
//! exactly the in-RAM graph's lists. Under strictly serial access the
//! paging counters ([`PagingStats`]) are a pure function of the request
//! sequence, the pool configuration and the page size. Storage faults
//! keep that contract: injection is a pure hash of `(seed, page,
//! attempt)`, so a faulty run is reproducible byte for byte.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::{LabelId, LabeledGraph, NodeId};

/// Versioned magic: the file type tag; the format version rides beside it.
pub const PAGED_MAGIC: [u8; 8] = *b"LCPGCSR\0";

/// The on-disk format version this build writes and reads (v4 = slotted
/// record pages behind a page directory, XXH64 per-page checksums).
pub const PAGED_FORMAT_VERSION: u32 = 4;

/// Default page size: 4 KiB, the common filesystem block size.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;

/// Smallest allowed page size (the header needs [`HEADER_BYTES`] bytes).
pub const MIN_PAGE_SIZE: u32 = 128;

/// Bytes the header actually uses inside page 0.
pub const HEADER_BYTES: usize = 96;

/// A primary page's header: its first node and its slot count (u32 each).
const PAGE_HEADER_BYTES: u64 = 8;

/// One slot: a record's in-page byte offset (a u32, so slots address
/// every page size [`PagedCsrWriter::with_page_size`] accepts).
const SLOT_BYTES: u64 = 4;

/// A record's header: the node's degree and label count (u32 each).
const RECORD_HEADER_BYTES: u64 = 8;

/// One page-directory entry: first node and primary page (u32 each).
const DIRECTORY_ENTRY_BYTES: u64 = 8;

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

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

/// XXH64 with seed 0 over a whole page — the per-page checksum (the
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

/// Writes a [`LabeledGraph`] into the paged on-disk record layout.
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

        let (directory, directory_page) = plan_record_pages(g, ps)?;
        let pages_of = |bytes: u64| bytes.div_ceil(ps).max(1);
        // The checksum table starts right after the data pages and is
        // itself excluded from checksumming (a torn table read surfaces as
        // a mismatch on the data page it vouches for).
        let checksum_page =
            directory_page + pages_of(directory.len() as u64 * DIRECTORY_ENTRY_BYTES);
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
        for (at, field) in [
            (16, n),
            (24, adjacency_len),
            (32, g.num_labels() as u64),
            (40, label_data_len),
            (48, max_degree),
            (56, RECORD_PAGE),
            (64, directory_page),
            (72, directory.len() as u64),
            (80, checksum_page),
            (88, total_pages),
        ] {
            header[at..at + 8].copy_from_slice(&field.to_le_bytes());
        }
        w.write_all(&header)?;

        // Record pages: each primary page's header, slots and records,
        // zero-padded to a page boundary (a lone spilled record's pad ends
        // its last overflow page).
        let ends = directory.iter().skip(1).map(|&(first, _)| first);
        for (&(first, _), end) in directory.iter().zip(ends.chain([n as u32])) {
            let mut section = SectionWriter::new(&mut w, ps);
            section.put_u32(first)?;
            section.put_u32(end - first)?;
            let mut at = PAGE_HEADER_BYTES + SLOT_BYTES * u64::from(end - first);
            for u in first..end {
                section.put_u32(at as u32)?;
                at += record_bytes(g, NodeId(u));
            }
            for u in (first..end).map(NodeId) {
                section.put_u32(g.degree(u) as u32)?;
                section.put_u32(g.labels(u).len() as u32)?;
                for &l in g.labels(u) {
                    section.put_u32(l.0)?;
                }
                for &v in g.neighbors(u) {
                    section.put_u32(v.0)?;
                }
            }
            section.finish()?;
        }

        // Page directory.
        let mut section = SectionWriter::new(&mut w, ps);
        for &(first, page) in &directory {
            section.put_u32(first)?;
            section.put_u32(page)?;
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

/// The first record page: the record section follows the header page.
const RECORD_PAGE: u64 = 1;

/// Bytes of `u`'s record: its header, then one u32 per label and per
/// neighbor.
fn record_bytes(g: &LabeledGraph, u: NodeId) -> u64 {
    RECORD_HEADER_BYTES + 4 * (g.degree(u) + g.labels(u).len()) as u64
}

/// Packs the records into pages of `ps` bytes, greedily in node order,
/// and returns the page directory — one `(first node, page)` entry per
/// primary page — and the first page past the record section. A record
/// that fits the open page's free room joins it (one slot plus the
/// record); any other opens a new primary page, which a record too big
/// for an empty page fills alone, spilling into overflow pages.
fn plan_record_pages(g: &LabeledGraph, ps: u64) -> io::Result<(Vec<(u32, u32)>, u64)> {
    let mut directory = Vec::new();
    let mut next_page = RECORD_PAGE;
    let mut room = 0u64;
    for u in g.nodes() {
        u32::try_from(g.labels(u).len())
            .map_err(|_| io::Error::other(format!("node {u} has over 2^32 labels")))?;
        let need = SLOT_BYTES + record_bytes(g, u);
        if need <= room {
            room -= need;
            continue;
        }
        let page = u32::try_from(next_page)
            .map_err(|_| io::Error::other("record section exceeds the u32 page space"))?;
        directory.push((u.0, page));
        let bytes = PAGE_HEADER_BYTES + need;
        let pages = bytes.div_ceil(ps);
        next_page += pages;
        room = if pages == 1 { ps - bytes } else { 0 };
    }
    Ok((directory, next_page))
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
/// Construct through [`PoolConfig::unbounded`] or [`PoolConfig::bounded`]
/// and read through the accessor methods.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolConfig {
    frames: Option<usize>,
    policy: EvictionPolicy,
}

impl PoolConfig {
    /// An unbounded pool (every page read once, never evicted).
    pub fn unbounded() -> PoolConfig {
        PoolConfig::default()
    }

    /// A bounded pool of `frames` frames (clamped to `>= 1`) under
    /// `policy`.
    pub fn bounded(frames: usize, policy: EvictionPolicy) -> PoolConfig {
        PoolConfig {
            frames: Some(frames.max(1)),
            policy,
        }
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
    /// Page reads whose bytes failed checksum verification (torn pages
    /// the file's table caught).
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
    /// Checksum table: one [`page_checksum`] per data page. `None`
    /// disables verification (a bare pool over a store, for tests).
    checksums: Option<Arc<[u64]>>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool over an arbitrary [`PageStore`], optionally verifying every
    /// read against a per-page checksum table of [`page_checksum`] sums.
    pub fn with_store(
        store: Box<dyn PageStore>,
        page_size: usize,
        num_pages: u64,
        cfg: PoolConfig,
        checksums: Option<Arc<[u64]>>,
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

    /// Verifies one page's bytes against the table (vacuously true
    /// without one, or for the table's own pages, which sit past its
    /// coverage).
    fn page_ok(&self, page_no: u64, buf: &[u8]) -> bool {
        match &self.checksums {
            Some(t) => t
                .get(page_no as usize)
                .is_none_or(|&want| page_checksum(buf) == want),
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
    ///
    /// A page past the end of the file is an
    /// [`io::ErrorKind::InvalidInput`] error.
    pub fn pin(&self, page_no: u64) -> io::Result<PinnedPage<'_>> {
        if page_no >= self.num_pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "page {page_no} out of range (file has {} pages)",
                    self.num_pages
                ),
            ));
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let slot = match inner.map.get(&page_no) {
            Some(&slot) => {
                inner.stats.pool_hits += 1;
                slot
            }
            None => {
                inner.stats.page_reads += 1;
                let slot = self.take_frame(inner);
                // The frame belongs to no page while the read runs, so an
                // error or a panic leaves it unmapped and unpinned.
                let frame = &mut inner.frames[slot];
                frame.page_no = u64::MAX;
                // Read into the victim's buffer in place, unless it is
                // fresh or a guard still shares it (a `PinnedPage` drops
                // its `Arc` after unpinning).
                if frame.data.len() != self.page_size || Arc::get_mut(&mut frame.data).is_none() {
                    frame.data = std::iter::repeat_n(0u8, self.page_size).collect();
                }
                let buf = Arc::get_mut(&mut frame.data).expect("the frame's buffer is unshared");
                self.read_verified(page_no, buf, &mut inner.stats, &mut inner.quarantined)?;
                frame.page_no = page_no;
                inner.map.insert(page_no, slot);
                slot
            }
        };
        inner.tick += 1;
        let f = &mut inner.frames[slot];
        f.pins += 1;
        f.referenced = true;
        f.stamp = inner.tick;
        let data = Arc::clone(&f.data);
        inner.pinned_now += 1;
        inner.stats.pinned_peak = inner.stats.pinned_peak.max(inner.pinned_now);
        Ok(PinnedPage {
            pool: self,
            slot,
            data,
        })
    }

    /// The frame a miss reads into: an unpinned victim evicted per the
    /// policy (its page unmapped) once the budget is reached, else a new
    /// frame — also when every frame is pinned, overcommitting rather
    /// than deadlocking.
    fn take_frame(&self, inner: &mut PoolInner) -> usize {
        match self.budget {
            Some(budget) if inner.frames.len() >= budget => match self.pick_victim(inner) {
                Some(victim) => {
                    inner.stats.evictions += 1;
                    let old = inner.frames[victim].page_no;
                    inner.map.remove(&old);
                    victim
                }
                None => push_frame(inner),
            },
            _ => push_frame(inner),
        }
    }

    /// Reads page `page_no` into `buf`, verified against the checksum
    /// table and retried against a faulty store. Past the retry budget
    /// the page is recovered through the store's fault-free path and
    /// quarantined (counted once); only a real I/O failure escapes.
    fn read_verified(
        &self,
        page_no: u64,
        buf: &mut [u8],
        stats: &mut PagingStats,
        quarantined: &mut HashSet<u64>,
    ) -> io::Result<()> {
        let max_retries = self.store.max_retries();
        let mut attempt = 0u32;
        loop {
            let ok = match self.store.read_page(page_no, buf, attempt) {
                Ok(()) => {
                    let good = self.page_ok(page_no, buf);
                    if !good {
                        stats.checksum_failures += 1;
                    }
                    good
                }
                Err(_) => false,
            };
            if ok {
                return Ok(());
            }
            if attempt >= max_retries {
                self.store.read_page_clean(page_no, buf)?;
                if quarantined.insert(page_no) {
                    stats.quarantined_pages += 1;
                }
                return Ok(());
            }
            attempt += 1;
            stats.storage_retries += 1;
        }
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

/// Validated header of an open paged file.
#[derive(Clone, Copy, Debug)]
struct Header {
    page_size: u64,
    num_nodes: u64,
    adjacency_len: u64,
    num_labels: u64,
    label_data_len: u64,
    max_degree: u64,
    record_page: u64,
    directory_page: u64,
    directory_len: u64,
    checksum_page: u64,
    total_pages: u64,
}

impl Header {
    /// Parses the header fields of a version-checked page 0.
    fn parse(head: &[u8; HEADER_BYTES], page_size: u32) -> Header {
        let u64_at = |i: usize| le_u64(&head[i..]);
        Header {
            page_size: page_size as u64,
            num_nodes: u64_at(16),
            adjacency_len: u64_at(24),
            num_labels: u64_at(32),
            label_data_len: u64_at(40),
            max_degree: u64_at(48),
            record_page: u64_at(56),
            directory_page: u64_at(64),
            directory_len: u64_at(72),
            checksum_page: u64_at(80),
            total_pages: u64_at(88),
        }
    }

    /// Whether the sections tile the file in order: header, record pages,
    /// directory, checksum table. Every field is untrusted, so the
    /// arithmetic is checked: an overflow is a corrupt file, never a
    /// wrapped value that happens to line up. The record section must
    /// also be big enough for the records the counts describe.
    fn layout_ok(&self) -> bool {
        let ps = self.page_size;
        let follows = |start: u64, entries: u64, width: u64| {
            entries
                .checked_mul(width)
                .map(|bytes| bytes.div_ceil(ps).max(1))
                .and_then(|pages| start.checked_add(pages))
        };
        let record_bytes = self
            .num_nodes
            .checked_mul(RECORD_HEADER_BYTES)
            .zip(self.adjacency_len.checked_add(self.label_data_len))
            .and_then(|(headers, entries)| headers.checked_add(entries.checked_mul(4)?));
        let record_room = self
            .directory_page
            .checked_sub(self.record_page)
            .and_then(|pages| pages.checked_mul(ps));
        self.record_page == RECORD_PAGE
            && record_bytes.zip(record_room).is_some_and(|(b, r)| b <= r)
            && Some(self.checksum_page)
                == follows(
                    self.directory_page,
                    self.directory_len,
                    DIRECTORY_ENTRY_BYTES,
                )
            && Some(self.total_pages) == follows(self.checksum_page, self.checksum_page, 8)
    }
}

/// Parses the page directory from the bytes of its pages and validates
/// it: it starts at node 0 on the first record page, its nodes and pages
/// both strictly increase, and its last entry names a real node and a
/// record page.
fn parse_directory(raw: &[u8], header: &Header) -> Result<Box<[(u32, u32)]>, PagedError> {
    let bad = |what: &str| Err(PagedError::Format(format!("page directory {what}")));
    let directory: Box<[(u32, u32)]> = raw
        .chunks_exact(DIRECTORY_ENTRY_BYTES as usize)
        .take(header.directory_len as usize)
        .map(|e| (le_u32(e), le_u32(&e[4..])))
        .collect();
    let Some(&(last_node, last_page)) = directory.last() else {
        if header.num_nodes == 0 && header.directory_page == RECORD_PAGE {
            return Ok(directory);
        }
        return bad("is empty, but the header declares nodes or record pages");
    };
    if directory[0] != (0, RECORD_PAGE as u32) {
        return bad("does not start at node 0 on the first record page");
    }
    if let Some(i) = directory
        .windows(2)
        .position(|w| w[0].0 >= w[1].0 || w[0].1 >= w[1].1)
    {
        return bad(&format!("is not strictly increasing at entry {}", i + 1));
    }
    if u64::from(last_node) >= header.num_nodes || u64::from(last_page) >= header.directory_page {
        return bad("points past the last node or outside the record section");
    }
    Ok(directory)
}

/// A read-only out-of-core [`LabeledGraph`] view: the paged file behind a
/// [`BufferPool`]. A fetch pins the node's record page(s) and decodes the
/// list straight out of them — memory residency is bounded by the pool's
/// frame budget and the page directory, not by graph size.
///
/// `Sync`: all mutability is inside the pool's lock, so one `PagedGraph`
/// can sit under many concurrent reader stacks. I/O errors after a
/// successful `open` indicate a truncated or vanished file and panic —
/// the read path mirrors the in-RAM graph's infallible accessors.
pub struct PagedGraph {
    pool: BufferPool,
    header: Header,
    /// One `(first node, page)` entry per primary page, by node.
    directory: Box<[(u32, u32)]>,
}

/// A node's record, located: its primary page pinned and its header read.
struct Record<'p> {
    node: NodeId,
    /// The primary page's guard.
    page: PinnedPage<'p>,
    page_no: u64,
    /// First page past the record's pages (the next primary page or the
    /// directory); the record may not run into it.
    limit: u64,
    /// In-page byte offset of the record header.
    offset: u64,
    degree: u32,
    labels: u32,
}

impl PagedGraph {
    /// Opens and validates a file written by [`PagedCsrWriter`] in the
    /// current format. A file of another version, a header or directory
    /// page that fails its checksum, or an inconsistent layout or
    /// directory is a [`PagedError::Format`].
    pub fn open(path: &Path, cfg: PoolConfig) -> Result<PagedGraph, PagedError> {
        PagedGraph::open_inner(path, cfg, None)
    }

    /// Opens like [`PagedGraph::open`], but serves page reads through a
    /// [`FaultyStorage`] injecting the configured seeded faults. The
    /// checksum table catches torn reads; read errors and mismatches are
    /// retried and, past the retry budget, recovered through the clean
    /// path and quarantined — so the *returned bytes* are identical to a
    /// fault-free open, with the damage visible only in [`PagingStats`].
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
        if head[0..8] != PAGED_MAGIC {
            return Err(PagedError::Format("bad magic".into()));
        }
        let version = le_u32(&head[8..]);
        if version != PAGED_FORMAT_VERSION {
            return Err(PagedError::Format(format!(
                "unsupported format version {version} (this build reads only version \
                 {PAGED_FORMAT_VERSION})"
            )));
        }
        let page_size = le_u32(&head[12..]);
        if !page_size.is_power_of_two() || page_size < MIN_PAGE_SIZE {
            return Err(PagedError::Format(format!("bad page size {page_size}")));
        }
        let header = Header::parse(&head, page_size);
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
        if !header.layout_ok() {
            return Err(PagedError::Format("inconsistent section layout".into()));
        }
        // Load the whole checksum table up front (8 bytes per data page —
        // a 0.2% overhead at the default page size) through plain reads,
        // outside any fault injection, and check the header page against
        // its entry: the header was read before the table could vouch for
        // it. The directory is loaded and checked the same way.
        let ps = header.page_size;
        let read_pages = |first: u64, pages: u64| -> Result<Vec<u8>, PagedError> {
            let mut raw = vec![0u8; (pages * ps) as usize];
            file.read_exact_at(&mut raw, first * ps)?;
            Ok(raw)
        };
        let table_pages = header.total_pages - header.checksum_page;
        let raw = read_pages(header.checksum_page, table_pages)?;
        let checksums: Arc<[u64]> = raw
            .chunks_exact(8)
            .take(header.checksum_page as usize)
            .map(le_u64)
            .collect();
        let verified = |first: u64, bytes: &[u8]| {
            bytes
                .chunks_exact(ps as usize)
                .zip(&checksums[first as usize..])
                .all(|(page, &want)| page_checksum(page) == want)
        };
        if !verified(0, &read_pages(0, 1)?) {
            return Err(PagedError::Format("header page fails its checksum".into()));
        }
        let raw = read_pages(
            header.directory_page,
            header.checksum_page - header.directory_page,
        )?;
        if !verified(header.directory_page, &raw) {
            return Err(PagedError::Format(
                "a page-directory page fails its checksum".into(),
            ));
        }
        let directory = parse_directory(&raw, &header)?;
        let store: Box<dyn PageStore> = match faults {
            Some(f) => Box::new(FaultyStorage::new(file, f)),
            None => Box::new(file),
        };
        let pool = BufferPool::with_store(
            store,
            page_size as usize,
            header.total_pages,
            cfg,
            Some(checksums),
        );
        Ok(PagedGraph {
            pool,
            header,
            directory,
        })
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

    /// Degree `d(u)`, read from the record header on `u`'s primary page.
    pub fn degree(&self, u: NodeId) -> usize {
        self.record(u).degree as usize
    }

    /// The sorted neighbor list of `u`, decoded from its record.
    pub fn neighbors(&self, u: NodeId) -> Arc<[NodeId]> {
        let rec = self.record(u);
        let (skip, count) = (rec.labels, rec.degree);
        self.decode(rec, skip, count, NodeId)
    }

    /// The sorted label list of `u`, decoded from its record.
    pub fn labels(&self, u: NodeId) -> Arc<[LabelId]> {
        let rec = self.record(u);
        let count = rec.labels;
        self.decode(rec, 0, count, LabelId)
    }

    fn pin(&self, page_no: u64) -> PinnedPage<'_> {
        self.pool.pin(page_no).expect("paged read failed")
    }

    /// Finds `u`'s primary page in the directory, pins it, and reads the
    /// slot and the record header.
    fn record(&self, u: NodeId) -> Record<'_> {
        assert!(
            (u.index() as u64) < self.header.num_nodes,
            "node {u} out of range"
        );
        let i = self.directory.partition_point(|&(first, _)| first <= u.0) - 1;
        let (first, page_no) = self.directory[i];
        let page_no = u64::from(page_no);
        let limit = self
            .directory
            .get(i + 1)
            .map_or(self.header.directory_page, |&(_, p)| u64::from(p));
        let page = self.pin(page_no);
        let ps = self.header.page_size;
        let slot = u64::from(u.0 - first);
        let slots = u64::from(le_u32(&page[4..]));
        let slot_at = PAGE_HEADER_BYTES + SLOT_BYTES * slot;
        assert!(
            le_u32(&page[..4]) == first && slot < slots && slot_at + SLOT_BYTES <= ps,
            "page {page_no} has no slot for node {u} (corrupt paged file)"
        );
        let offset = u64::from(le_u32(&page[slot_at as usize..]));
        assert!(
            offset.is_multiple_of(4) && offset + RECORD_HEADER_BYTES <= ps,
            "node {u}'s record header is misaligned or past page {page_no} (corrupt paged file)"
        );
        let at = offset as usize;
        Record {
            node: u,
            degree: le_u32(&page[at..]),
            labels: le_u32(&page[at + 4..]),
            page,
            page_no,
            limit,
            offset,
        }
    }

    /// Decodes `count` u32s, starting `skip` entries past `rec`'s header,
    /// straight from the pinned page(s) into the returned list. The run is
    /// checked against the record's pages before anything is pinned or
    /// allocated; overflow pages are pinned, together, only when it
    /// leaves the primary page.
    fn decode<T>(
        &self,
        rec: Record<'_>,
        skip: u32,
        count: u32,
        wrap: impl Fn(u32) -> T,
    ) -> Arc<[T]> {
        let ps = self.header.page_size;
        // Absolute byte offsets in the file; no overflow, as page numbers
        // are u32 and page sizes at most 2^31.
        let start = rec.page_no * ps + rec.offset + RECORD_HEADER_BYTES + 4 * u64::from(skip);
        let end = start + 4 * u64::from(count);
        assert!(
            end <= rec.limit * ps,
            "node {}'s record runs past its pages (corrupt paged file)",
            rec.node
        );
        // The run's bytes on the page starting at byte `base`; a u32
        // never straddles two pages (records and pages are 4-byte aligned).
        let span =
            |base: u64| (start.max(base) - base) as usize..(end.min(base + ps) - base) as usize;
        if end <= (rec.page_no + 1) * ps {
            return rec.page[span(rec.page_no * ps)]
                .chunks_exact(4)
                .map(|c| wrap(le_u32(c)))
                .collect();
        }
        if count == 0 {
            return Arc::from([]);
        }
        let (first, last) = (start / ps, (end - 1) / ps);
        let mut pins = Vec::with_capacity((last - first + 1) as usize);
        // The primary page stays pinned with the run's pages either way.
        let _primary = if first == rec.page_no {
            pins.push(rec.page);
            None
        } else {
            Some(rec.page)
        };
        pins.extend((first + pins.len() as u64..=last).map(|p| self.pin(p)));
        let mut out = Vec::with_capacity(count as usize);
        for (page, p) in pins.iter().zip(first..) {
            out.extend(page[span(p * ps)].chunks_exact(4).map(|c| wrap(le_u32(c))));
        }
        Arc::from(out)
    }
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

    /// A graph whose records fill many 128-byte pages (the 5-node
    /// fixture fits on one): a labeled 64-ring plus a hub adjacent to
    /// every other node, whose record spills into an overflow page.
    fn wide_fixture() -> LabeledGraph {
        let n = 64u32;
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            b.add_edge(NodeId(u), NodeId((u + 1) % n));
            if u % 2 == 1 {
                b.add_edge(NodeId(0), NodeId(u));
            }
            let labels: Vec<LabelId> = (0..u % 3).map(|j| LabelId(u % 5 + j)).collect();
            b.set_labels(NodeId(u), &labels);
        }
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

    /// The bytes of `g` written at 128-byte pages.
    fn file_bytes(g: &LabeledGraph, tag: &str) -> Vec<u8> {
        let path = temp_file(tag);
        PagedCsrWriter::with_page_size(128).write(g, &path).unwrap();
        std::fs::read(&path).unwrap()
    }

    fn field(bytes: &[u8], at: usize) -> u64 {
        le_u64(&bytes[at..])
    }

    /// Recomputes the checksum of every data page into the table at
    /// `checksum_page` — what a test that edits a page must do for the
    /// edit, not its checksum, to be what `open` or a read sees.
    fn resum(bytes: &mut [u8], checksum_page: usize) {
        for page in 0..checksum_page {
            let sum = page_checksum(&bytes[page * 128..][..128]);
            let entry = checksum_page * 128 + page * 8;
            bytes[entry..entry + 8].copy_from_slice(&sum.to_le_bytes());
        }
    }

    fn open_bytes(bytes: &[u8], tag: &str) -> Result<PagedGraph, PagedError> {
        let path = temp_file(tag);
        std::fs::write(&path, bytes).unwrap();
        PagedGraph::open(&path, PoolConfig::unbounded())
    }

    fn is_format_error(r: Result<PagedGraph, PagedError>) -> bool {
        matches!(r, Err(PagedError::Format(_)))
    }

    #[test]
    fn roundtrip_matches_in_ram_graph() {
        let g = fixture();
        let p = roundtrip(&g, 128, PoolConfig::unbounded(), "roundtrip");
        assert_matches(&g, &p);
        assert_eq!(p.max_degree(), 3);
        let g = wide_fixture();
        assert_matches(&g, &roundtrip(&g, 128, PoolConfig::unbounded(), "wide"));
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
        // A 100-neighbor star center's record is 408 bytes: at 128-byte
        // pages it fills its primary page alone and spills into three
        // overflow pages.
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
            // The center's list spans multiple pinned pages at once; the
            // pool must have recorded that working set.
            assert_eq!(p.paging_stats().pinned_peak, 4, "cfg {cfg:?}");
        }
    }

    #[test]
    fn a_fetch_of_a_one_page_record_pins_exactly_one_page() {
        let g = wide_fixture();
        let p = roundtrip(&g, 128, PoolConfig::unbounded(), "one_pin");
        let pins = || {
            let s = p.paging_stats();
            s.page_reads + s.pool_hits
        };
        // A record alone on a page shares it with the page header and one
        // slot; labels lead the record, so a label fetch fits whenever
        // they do.
        let overhead = PAGE_HEADER_BYTES + SLOT_BYTES + RECORD_HEADER_BYTES;
        let fits = |entries: usize| overhead as usize + 4 * entries <= 128;
        let mut spilled = 0;
        for u in g.nodes() {
            let (d, l) = (g.degree(u), g.labels(u).len());
            let before = pins();
            assert_eq!(p.degree(u), d);
            assert_eq!(pins() - before, 1, "degree({u})");
            let before = pins();
            assert_eq!(&*p.labels(u), g.labels(u));
            if fits(l) {
                assert_eq!(pins() - before, 1, "labels({u})");
            }
            let before = pins();
            assert_eq!(&*p.neighbors(u), g.neighbors(u));
            if fits(l + d) {
                assert_eq!(pins() - before, 1, "neighbors({u})");
            } else {
                spilled += 1;
                assert!(pins() - before > 1, "neighbors({u}) spills");
            }
        }
        assert_eq!(spilled, 1, "the hub's record spills, no other");
    }

    #[test]
    fn every_policy_returns_identical_bytes_at_every_budget() {
        for g in [fixture(), wide_fixture()] {
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
    }

    #[test]
    fn tight_pool_evicts_and_unbounded_never_does() {
        // Two passes over every node: an unbounded pool reads each touched
        // page once, a 1-frame pool evicts and reads pages again.
        let g = wide_fixture();
        let unbounded = roundtrip(&g, 128, PoolConfig::unbounded(), "unbounded");
        assert_matches(&g, &unbounded);
        assert_matches(&g, &unbounded);
        let once = unbounded.paging_stats();
        assert_eq!(once.evictions, 0);
        assert!(once.page_reads <= unbounded.pool.num_pages());
        assert!(once.pool_hits > 0);

        let tight = roundtrip(
            &g,
            128,
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            "tight",
        );
        assert_matches(&g, &tight);
        assert_matches(&g, &tight);
        let s = tight.paging_stats();
        assert!(s.evictions > 0, "a 1-frame pool must evict: {s:?}");
        assert!(s.page_reads > once.page_reads, "pages re-read: {s:?}");
    }

    #[test]
    fn paging_counters_are_deterministic_under_serial_access() {
        let g = wide_fixture();
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
        let bytes = file_bytes(&g, "corrupt");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(is_format_error(open_bytes(&bad, "bad_magic")));

        // Bad version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(is_format_error(open_bytes(&bad, "bad_version")));

        // Truncated file.
        assert!(is_format_error(open_bytes(
            &bytes[..bytes.len() - 64],
            "truncated"
        )));

        // Header fields whose layout arithmetic overflows, both as a torn
        // header (its checksum fails) and re-summed (so the arithmetic
        // itself must catch them). 2^62 + the real adjacency length wraps
        // back onto the real record bytes when multiplied by the 4-byte
        // entry width.
        let adjacency_len = field(&bytes, 24);
        let huge = [1u64 << 62, (1 << 63) - 1, u64::MAX];
        let mut fields: Vec<(usize, u64)> = Vec::new();
        for offset in [24, 40, 72, 88] {
            fields.extend(huge.map(|v| (offset, v)));
        }
        fields.extend([
            (24, (1 << 62) + adjacency_len),
            (56, u64::MAX),
            (64, u64::MAX),
            (64, 1),
            (80, u64::MAX),
        ]);
        let checksum_page = field(&bytes, 80) as usize;
        for &(offset, value) in &fields {
            let mut bad = bytes.clone();
            bad[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            assert!(
                is_format_error(open_bytes(&bad, "overflow")),
                "header field at {offset} = {value} must be rejected"
            );
            resum(&mut bad, checksum_page);
            assert!(
                is_format_error(open_bytes(&bad, "overflow_resummed")),
                "re-summed header field at {offset} = {value} must be rejected"
            );
        }
    }

    #[test]
    fn header_page_is_verified_at_open() {
        let mut bytes = file_bytes(&fixture(), "header_sum");
        bytes[48] ^= 0x40;
        assert!(is_format_error(open_bytes(&bytes, "header_flip")));
    }

    #[test]
    fn files_of_older_versions_fail_naming_their_version() {
        let bytes = file_bytes(&fixture(), "old_version");
        let checksum_page = field(&bytes, 80) as usize;
        for version in [1u32, 2, 3] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            resum(&mut old, checksum_page);
            match open_bytes(&old, "old_version_stamped") {
                Err(PagedError::Format(msg)) => assert!(
                    msg.contains(&format!("version {version} ")),
                    "the error must name version {version}: {msg}"
                ),
                Err(e) => panic!("version {version}: expected a format error, got {e}"),
                Ok(_) => panic!("a version-{version} file must not open"),
            }
        }
    }

    /// Where a file's page directory lives: its first page and its entry
    /// count, from the header.
    fn directory_of(bytes: &[u8]) -> (usize, usize) {
        (field(bytes, 64) as usize, field(bytes, 72) as usize)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_byte_change_changes_the_page_checksum(
            page in proptest::collection::vec(proptest::prelude::any::<u8>(), 128..4097),
            at in proptest::prelude::any::<usize>(),
            delta in 1u8..=255,
        ) {
            let mut changed = page.clone();
            changed[at % page.len()] ^= delta;
            proptest::prop_assert_ne!(page_checksum(&page), page_checksum(&changed));
        }

        #[test]
        fn any_single_byte_flip_in_the_header_or_directory_fails_open(
            which in proptest::prelude::any::<usize>(),
            at in 0usize..128,
            delta in 1u8..=255,
        ) {
            let mut bytes = file_bytes(&wide_fixture(), "flip_src");
            let (directory_page, _) = directory_of(&bytes);
            let directory_pages = field(&bytes, 80) as usize - directory_page;
            // Page 0 or one of the directory pages.
            let page = match which % (1 + directory_pages) {
                0 => 0,
                k => directory_page + k - 1,
            };
            bytes[page * 128 + at] ^= delta;
            proptest::prop_assert!(is_format_error(open_bytes(&bytes, "flip")));
        }
    }

    #[test]
    fn resummed_bad_directories_fail_open() {
        let bytes = file_bytes(&wide_fixture(), "bad_dir");
        let (directory_page, entries) = directory_of(&bytes);
        let checksum_page = field(&bytes, 80) as usize;
        assert!(entries >= 3);
        let entry = |i: usize| directory_page * 128 + i * 8;
        let set =
            |b: &mut Vec<u8>, at: usize, v: u32| b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
        // Nodes out of order: entries 1 and 2 swapped.
        let mut b = bytes.clone();
        let (e1, e2) = (entry(1), entry(2));
        let (one, two) = (b[e1..e1 + 8].to_vec(), b[e2..e2 + 8].to_vec());
        b[e1..e1 + 8].copy_from_slice(&two);
        b[e2..e2 + 8].copy_from_slice(&one);
        cases.push(("non-monotone", b));
        // Two entries on one page.
        let mut b = bytes.clone();
        let page1 = le_u32(&bytes[entry(1) + 4..]);
        set(&mut b, entry(2) + 4, page1);
        cases.push(("repeated page", b));
        // Not starting at node 0.
        let mut b = bytes.clone();
        set(&mut b, entry(0), 1);
        cases.push(("starts at node 1", b));
        // The last entry pointing at the directory, past the records.
        let mut b = bytes.clone();
        set(&mut b, entry(entries - 1) + 4, directory_page as u32);
        cases.push(("page outside the record section", b));
        let mut b = bytes.clone();
        set(&mut b, entry(entries - 1) + 4, u32::MAX);
        cases.push(("page past the file", b));
        // The last entry naming a node past the graph.
        let mut b = bytes.clone();
        set(&mut b, entry(entries - 1), 64);
        cases.push(("node past the graph", b));
        for (what, mut b) in cases {
            resum(&mut b, checksum_page);
            assert!(
                is_format_error(open_bytes(&b, "bad_dir_case")),
                "{what} must be a format error"
            );
        }
    }

    #[test]
    fn a_record_claiming_too_long_a_run_panics_with_a_message() {
        let bytes = file_bytes(&wide_fixture(), "long_run");
        let checksum_page = field(&bytes, 80) as usize;
        // Node 1 sits in slot 1 of the second primary page (the hub, node
        // 0, fills the first); its record header is where the slot says.
        let (directory_page, _) = directory_of(&bytes);
        let page = le_u32(&bytes[directory_page * 128 + 12..]) as usize;
        assert_eq!(le_u32(&bytes[page * 128..]), 1, "first node of the page");
        let record = page * 128 + le_u32(&bytes[page * 128 + 8..]) as usize;
        for (at, value) in [(0usize, 1u32 << 20), (0, u32::MAX), (4, u32::MAX)] {
            let mut b = bytes.clone();
            b[record + at..record + at + 4].copy_from_slice(&value.to_le_bytes());
            resum(&mut b, checksum_page);
            let p = open_bytes(&b, "long_run_case").unwrap();
            let fetch = || {
                if at == 0 {
                    p.neighbors(NodeId(1)).len()
                } else {
                    p.labels(NodeId(1)).len()
                }
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fetch));
            let payload = caught.expect_err("a run past the record's pages must panic");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("runs past its pages"), "panic message: {msg}");
        }
    }

    #[test]
    fn pin_past_the_end_of_the_file_is_an_invalid_input_error() {
        let p = roundtrip(&fixture(), 128, PoolConfig::unbounded(), "pin_past_end");
        let pages = p.pool().num_pages();
        assert!(p.pool().pin(pages - 1).is_ok());
        for page in [pages, u64::MAX] {
            let err = p.pool().pin(page).err().expect("no such page");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "page {page}");
        }
        assert_eq!(
            p.paging_stats().page_reads,
            1,
            "a refused pin reads nothing"
        );
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
    fn v4_files_carry_a_checksum_per_data_page() {
        let g = wide_fixture();
        let path = temp_file("v4_sums");
        let meta = PagedCsrWriter::with_page_size(128)
            .write(&g, &path)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 4);
        let checksum_page = field(&bytes, 80);
        assert!(checksum_page > 0 && checksum_page < meta.total_pages);
        for page in 0..checksum_page {
            let start = (page * 128) as usize;
            let want = field(&bytes, (checksum_page * 128 + page * 8) as usize);
            assert_eq!(
                page_checksum(&bytes[start..start + 128]),
                want,
                "checksum of page {page}"
            );
        }
    }

    #[test]
    fn faulty_storage_returns_clean_bytes_and_counts_the_damage() {
        let g = wide_fixture();
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
        let g = wide_fixture();
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
        let g = wide_fixture();
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
    fn a_fault_reads_into_the_evicted_frames_buffer() {
        let bytes = file_bytes(&wide_fixture(), "reuse");
        let path = temp_file("reuse_file");
        std::fs::write(&path, &bytes).unwrap();
        let p = PagedGraph::open(&path, PoolConfig::bounded(1, EvictionPolicy::Lru)).unwrap();
        let first = p.pool().pin(1).unwrap().as_ptr();
        let second = p.pool().pin(2).unwrap();
        assert_eq!(
            second.as_ptr(),
            first,
            "page 2 must land in page 1's buffer"
        );
        assert_eq!(&second[..], &bytes[256..384]);
        assert_eq!(p.paging_stats().evictions, 1);
    }

    /// A store whose every read of one page fails, the clean path too —
    /// a real I/O error that escapes the pool's retries.
    struct BrokenPageStore {
        file: File,
        broken: u64,
    }

    impl PageStore for BrokenPageStore {
        fn read_page(&self, page_no: u64, buf: &mut [u8], _attempt: u32) -> io::Result<()> {
            self.read_page_clean(page_no, buf)
        }

        fn read_page_clean(&self, page_no: u64, buf: &mut [u8]) -> io::Result<()> {
            if page_no == self.broken {
                return Err(io::Error::other("injected hard read error"));
            }
            self.file.read_exact_at(buf, page_no * buf.len() as u64)
        }
    }

    #[test]
    fn a_failed_fault_leaves_no_page_mapped_to_its_frame() {
        let bytes = file_bytes(&wide_fixture(), "broken");
        let path = temp_file("broken_file");
        std::fs::write(&path, &bytes).unwrap();
        let pool = BufferPool::with_store(
            Box::new(BrokenPageStore {
                file: File::open(&path).unwrap(),
                broken: 2,
            }),
            128,
            bytes.len() as u64 / 128,
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            None,
        );
        drop(pool.pin(1).unwrap());
        // The fault evicts page 1 from the only frame, then fails.
        assert!(pool.pin(2).is_err());
        assert!(pool.pin(2).is_err(), "a failed page is never served");
        // Page 1 is read again, not served from the frame that held it.
        assert_eq!(&pool.pin(1).unwrap()[..], &bytes[128..256]);
        let s = pool.stats();
        assert_eq!((s.page_reads, s.pool_hits), (4, 0), "{s:?}");
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
