//! Recovery and durability check, in a fresh child process.
//!
//! The load process takes the crash image of its two file systems (every
//! file cut back to its last `sync_data`, never-synced files dropped)
//! and pipes it, with what must survive, to `loadbench --recover-only`.
//! The child reopens Gallery on the image and times it until the first
//! request could be served; then, untimed, it checks row counts per
//! table, sampled acknowledged ids, sampled blobs and the DAL's own
//! consistency audit. Any loss makes the child exit non-zero.
//!
//! A fresh process, because reopening inside the process that has just
//! freed the old store measured four to five times slower in a prototype
//! (allocator state), and because that is how recovery really happens.

use crate::json::{self, Json};
use crate::memfs::{FsImage, MemFs};
use crate::quiet::Probe;
use crate::stack::{Stack, StackOptions};
use std::io::{self, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"LBRECOV1";

/// What the load process knows must be on disk.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Expectation {
    pub cache_bytes: u64,
    /// Acknowledged rows per table.
    pub rows: Vec<(String, u64)>,
    /// Sampled acknowledged primary keys: (table, id).
    pub ids: Vec<(String, String)>,
    /// Sampled blobs: (location, length).
    pub blobs: Vec<(String, u64)>,
}

#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    pub ok: bool,
    /// Reopen WAL + blob directory + `Gallery::open`, until ready.
    pub recovery_s: f64,
    /// Machine speed (see `quiet.rs`) just before reopening and just after.
    pub speed: (f64, f64),
    pub meta_open_s: f64,
    pub blob_open_s: f64,
    pub rows: u64,
    pub wal_bytes: u64,
    pub errors: Vec<String>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_u64(input: &mut dyn Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    input.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_str(input: &mut dyn Read) -> io::Result<String> {
    let n = get_u64(input)?;
    if n > 4096 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string too long",
        ));
    }
    let mut buf = vec![0u8; n as usize];
    input.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"))
}

fn get_count(input: &mut dyn Read) -> io::Result<u64> {
    let n = get_u64(input)?;
    if n > 1 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "list too long"));
    }
    Ok(n)
}

/// Expectation and both crash images as one byte stream.
pub fn payload(expect: &Expectation, wal: &FsImage, blobs: &FsImage) -> io::Result<Vec<u8>> {
    let mut out =
        Vec::with_capacity((wal.total_bytes() + blobs.total_bytes()) as usize + (1 << 16));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&expect.cache_bytes.to_le_bytes());
    out.extend_from_slice(&(expect.rows.len() as u64).to_le_bytes());
    for (table, n) in &expect.rows {
        put_str(&mut out, table);
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&(expect.ids.len() as u64).to_le_bytes());
    for (table, id) in &expect.ids {
        put_str(&mut out, table);
        put_str(&mut out, id);
    }
    out.extend_from_slice(&(expect.blobs.len() as u64).to_le_bytes());
    for (location, len) in &expect.blobs {
        put_str(&mut out, location);
        out.extend_from_slice(&len.to_le_bytes());
    }
    wal.write_to(&mut out)?;
    blobs.write_to(&mut out)?;
    Ok(out)
}

fn read_payload(input: &mut dyn Read) -> io::Result<(Expectation, FsImage, FsImage)> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a recovery payload",
        ));
    }
    let mut expect = Expectation {
        cache_bytes: get_u64(input)?,
        ..Default::default()
    };
    for _ in 0..get_count(input)? {
        expect.rows.push((get_str(input)?, get_u64(input)?));
    }
    for _ in 0..get_count(input)? {
        expect.ids.push((get_str(input)?, get_str(input)?));
    }
    for _ in 0..get_count(input)? {
        expect.blobs.push((get_str(input)?, get_u64(input)?));
    }
    let wal = FsImage::read_from(input)?;
    let blobs = FsImage::read_from(input)?;
    Ok((expect, wal, blobs))
}

/// Reopen Gallery on the images, timed; then check nothing was lost.
pub fn recover(expect: &Expectation, wal: FsImage, blobs: FsImage) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let opts = StackOptions {
        cache_bytes: expect.cache_bytes as usize,
        telemetry: true,
        sink: None,
    };
    let wal_fs = Arc::new(MemFs::from_image(wal));
    let blob_fs = Arc::new(MemFs::from_image(blobs));
    let probe = Probe::new();
    let speed_before = probe.speed();
    let (stack, times) = match Stack::open(wal_fs, blob_fs, &opts) {
        Ok(opened) => opened,
        Err(e) => {
            report.errors.push(format!("reopen failed: {e}"));
            return report;
        }
    };
    report.speed = (speed_before, probe.speed());
    report.recovery_s = times.total_s;
    report.meta_open_s = times.meta_s;
    report.blob_open_s = times.blob_s;
    report.wal_bytes = stack.wal_bytes();
    for (table, want) in &expect.rows {
        let have = stack.row_count(table) as u64;
        report.rows += have;
        if have != *want {
            report.errors.push(format!(
                "table {table}: {have} rows after recovery, {want} acknowledged"
            ));
        }
    }
    let missing = expect
        .ids
        .iter()
        .filter(|(table, id)| !stack.has_row(table, id))
        .count();
    if missing > 0 {
        report.errors.push(format!(
            "{missing} of {} sampled acknowledged ids are gone",
            expect.ids.len()
        ));
    }
    let bad_blobs = expect
        .blobs
        .iter()
        .filter(|(location, len)| stack.blob_len_at(location) != Some(*len as usize))
        .count();
    if bad_blobs > 0 {
        report.errors.push(format!(
            "{bad_blobs} of {} sampled blobs are gone or damaged",
            expect.blobs.len()
        ));
    }
    match stack.audit() {
        Ok((true, _, _)) => {}
        Ok((false, rows, _)) => report
            .errors
            .push(format!("audit: dangling metadata among {rows} rows")),
        Err(e) => report.errors.push(format!("audit failed: {e}")),
    }
    report.ok = report.errors.is_empty();
    report
}

impl RecoveryReport {
    pub fn to_json(&self) -> Json {
        json::obj(vec![
            ("ok", Json::Bool(self.ok)),
            ("recovery_s", json::num(self.recovery_s)),
            ("speed_before", json::num(self.speed.0)),
            ("speed_after", json::num(self.speed.1)),
            ("meta_open_s", json::num(self.meta_open_s)),
            ("blob_open_s", json::num(self.blob_open_s)),
            ("rows", Json::U64(self.rows)),
            ("wal_bytes", Json::U64(self.wal_bytes)),
            (
                "errors",
                Json::Seq(self.errors.iter().map(json::text).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<RecoveryReport> {
        let f = |k| json::get(j, k).and_then(json::as_f64);
        Some(RecoveryReport {
            ok: json::get(j, "ok").and_then(json::as_bool)?,
            recovery_s: f("recovery_s")?,
            speed: (f("speed_before")?, f("speed_after")?),
            meta_open_s: f("meta_open_s")?,
            blob_open_s: f("blob_open_s")?,
            rows: f("rows")? as u64,
            wal_bytes: f("wal_bytes")? as u64,
            errors: json::items(json::get(j, "errors")?)
                .iter()
                .filter_map(|e| json::as_str(e).map(str::to_owned))
                .collect(),
        })
    }
}

/// `loadbench --recover-only`: payload on stdin, report on stdout.
pub fn child_main() -> i32 {
    let mut input = io::stdin().lock();
    let (expect, wal, blobs) = match read_payload(&mut input) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("loadbench --recover-only: cannot read the payload: {e}");
            return 2;
        }
    };
    let report = recover(&expect, wal, blobs);
    println!("{}", json::line(&report.to_json()));
    if report.ok {
        0
    } else {
        3
    }
}

/// Run recovery in a child of this executable and wait for it to end.
pub fn in_child(payload: &[u8]) -> Result<RecoveryReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--recover-only")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the recovery child: {e}"))?;
    // The child reads the whole payload before it writes anything, so
    // writing first and reading after cannot deadlock.
    let written = child
        .stdin
        .take()
        .expect("stdin was piped")
        .write_all(payload);
    let output = child
        .wait_with_output()
        .map_err(|e| format!("recovery child: {e}"))?;
    written.map_err(|e| format!("cannot send the crash image: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .and_then(|j| RecoveryReport::from_json(&j))
        .ok_or_else(|| format!("recovery child exited with {} and no report", output.status))?;
    if report.ok != output.status.success() {
        return Err(format!(
            "recovery child exited with {} but reported ok={}",
            output.status, report.ok
        ));
    }
    Ok(report)
}

/// Same, in this process (unit tests, where `current_exe` is the test
/// harness and not `loadbench`).
pub fn in_process(payload: &[u8]) -> Result<RecoveryReport, String> {
    let (expect, wal, blobs) = read_payload(&mut &payload[..]).map_err(|e| e.to_string())?;
    Ok(recover(&expect, wal, blobs))
}
