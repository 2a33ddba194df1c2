//! `MemFs`: the benchmark's file system. It keeps every file in this
//! process's memory and counts what the program asks of it.
//!
//! Why not the sandbox disk: the PR-11 attempt at this benchmark failed
//! its own repeatability check because blob create+fsync+rename on the
//! shared virtio volume varied by 4–20% between identical runs. That disk
//! is not the device Gallery would run on, so wall-clock metrics here
//! measure the software path, and the device cost is reported as exact
//! counts (fsyncs, write calls, bytes, renames). The counters are relaxed
//! atomic adds with no clocks, so they cost the same traced or untraced.
//!
//! `MemFs` also tracks what a crash would keep: file bytes survive up to
//! the length at the last `sync_data`, and a file that was never synced
//! does not survive at all. [`MemFs::crash_image`] produces that disk, and
//! the recovery child process reopens Gallery on it.

use gallery_store::{FileSystem, FsFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};

/// What the program asked of one file system since it was created.
#[derive(Debug, Default)]
pub struct FsCounters {
    pub fsyncs: AtomicU64,
    pub write_calls: AtomicU64,
    pub bytes_written: AtomicU64,
    pub renames: AtomicU64,
    pub creates: AtomicU64,
    pub reads: AtomicU64,
    pub bytes_read: AtomicU64,
}

/// A point-in-time copy of [`FsCounters`]; subtract two to get a phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsCounts {
    pub fsyncs: u64,
    pub write_calls: u64,
    pub bytes_written: u64,
    pub renames: u64,
    pub creates: u64,
    pub reads: u64,
    pub bytes_read: u64,
}

impl FsCounts {
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            fsyncs: self.fsyncs - earlier.fsyncs,
            write_calls: self.write_calls - earlier.write_calls,
            bytes_written: self.bytes_written - earlier.bytes_written,
            renames: self.renames - earlier.renames,
            creates: self.creates - earlier.creates,
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }

    pub fn plus(&self, other: &FsCounts) -> FsCounts {
        FsCounts {
            fsyncs: self.fsyncs + other.fsyncs,
            write_calls: self.write_calls + other.write_calls,
            bytes_written: self.bytes_written + other.bytes_written,
            renames: self.renames + other.renames,
            creates: self.creates + other.creates,
            reads: self.reads + other.reads,
            bytes_read: self.bytes_read + other.bytes_read,
        }
    }
}

struct Node {
    bytes: Vec<u8>,
    /// Length at the last `sync_data`; `None` until the first one.
    synced_len: Option<usize>,
}

type SharedNode = Arc<Mutex<Node>>;

#[derive(Default)]
struct Tree {
    files: BTreeMap<PathBuf, SharedNode>,
    dirs: BTreeSet<PathBuf>,
}

/// In-memory, counting [`FileSystem`].
#[derive(Default)]
pub struct MemFs {
    tree: RwLock<Tree>,
    counters: Arc<FsCounters>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

impl MemFs {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counts(&self) -> FsCounts {
        let c = &self.counters;
        FsCounts {
            fsyncs: c.fsyncs.load(Relaxed),
            write_calls: c.write_calls.load(Relaxed),
            bytes_written: c.bytes_written.load(Relaxed),
            renames: c.renames.load(Relaxed),
            creates: c.creates.load(Relaxed),
            reads: c.reads.load(Relaxed),
            bytes_read: c.bytes_read.load(Relaxed),
        }
    }

    /// Bytes held in all files (what `du` would say).
    pub fn total_file_bytes(&self) -> u64 {
        let tree = self.tree.read().expect("memfs tree lock");
        tree.files
            .values()
            .map(|n| n.lock().expect("memfs node lock").bytes.len() as u64)
            .sum()
    }

    fn node(&self, path: &Path) -> io::Result<SharedNode> {
        let tree = self.tree.read().expect("memfs tree lock");
        tree.files.get(path).cloned().ok_or_else(|| not_found(path))
    }

    /// The disk a machine would find after losing power now: every file
    /// cut back to its length at its last `sync_data`, files that were
    /// never synced gone. Directory entries (create, rename, remove) count
    /// as durable at once, the same simplification the repository's own
    /// `SimFs` makes. Returns the image and how many bytes and files the
    /// crash dropped.
    pub fn crash_image(&self) -> (FsImage, u64, u64) {
        let tree = self.tree.read().expect("memfs tree lock");
        let mut image = FsImage {
            dirs: tree.dirs.iter().cloned().collect(),
            files: Vec::with_capacity(tree.files.len()),
        };
        let (mut lost_bytes, mut lost_files) = (0u64, 0u64);
        for (path, node) in &tree.files {
            let node = node.lock().expect("memfs node lock");
            match node.synced_len {
                Some(len) => {
                    lost_bytes += (node.bytes.len() - len) as u64;
                    image.files.push((path.clone(), node.bytes[..len].to_vec()));
                }
                None => {
                    lost_bytes += node.bytes.len() as u64;
                    lost_files += 1;
                }
            }
        }
        (image, lost_bytes, lost_files)
    }

    /// A file system holding exactly `image`, all of it durable.
    pub fn from_image(image: FsImage) -> Self {
        let fs = MemFs::new();
        {
            let mut tree = fs.tree.write().expect("memfs tree lock");
            tree.dirs = image.dirs.into_iter().collect();
            for (path, bytes) in image.files {
                let synced_len = Some(bytes.len());
                tree.files
                    .insert(path, Arc::new(Mutex::new(Node { bytes, synced_len })));
            }
        }
        fs
    }
}

struct MemFile {
    node: SharedNode,
    counters: Arc<FsCounters>,
}

impl Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.counters.write_calls.fetch_add(1, Relaxed);
        self.counters
            .bytes_written
            .fetch_add(buf.len() as u64, Relaxed);
        self.node
            .lock()
            .expect("memfs node lock")
            .bytes
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl FsFile for MemFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.fsyncs.fetch_add(1, Relaxed);
        let mut node = self.node.lock().expect("memfs node lock");
        node.synced_len = Some(node.bytes.len());
        Ok(())
    }
}

impl FileSystem for MemFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        {
            let tree = self.tree.read().expect("memfs tree lock");
            if tree.dirs.contains(path) {
                return Ok(());
            }
        }
        let mut tree = self.tree.write().expect("memfs tree lock");
        for ancestor in path.ancestors() {
            if !ancestor.as_os_str().is_empty() {
                tree.dirs.insert(ancestor.to_path_buf());
            }
        }
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let mut tree = self.tree.write().expect("memfs tree lock");
        let node = tree.files.entry(path.to_path_buf()).or_insert_with(|| {
            self.counters.creates.fetch_add(1, Relaxed);
            Arc::new(Mutex::new(Node {
                bytes: Vec::new(),
                synced_len: None,
            }))
        });
        Ok(Box::new(MemFile {
            node: Arc::clone(node),
            counters: Arc::clone(&self.counters),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        self.counters.creates.fetch_add(1, Relaxed);
        let node = Arc::new(Mutex::new(Node {
            bytes: Vec::new(),
            synced_len: None,
        }));
        self.tree
            .write()
            .expect("memfs tree lock")
            .files
            .insert(path.to_path_buf(), Arc::clone(&node));
        Ok(Box::new(MemFile {
            node,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let node = self.node(path)?;
        let bytes = node.lock().expect("memfs node lock").bytes.clone();
        self.counters.reads.fetch_add(1, Relaxed);
        self.counters
            .bytes_read
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.renames.fetch_add(1, Relaxed);
        let mut tree = self.tree.write().expect("memfs tree lock");
        let node = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), node);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree.write().expect("memfs tree lock");
        tree.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        let tree = self.tree.read().expect("memfs tree lock");
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.tree
            .read()
            .expect("memfs tree lock")
            .dirs
            .contains(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let node = self.node(path)?;
        let len = node.lock().expect("memfs node lock").bytes.len();
        Ok(len as u64)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let node = self.node(path)?;
        let mut node = node.lock().expect("memfs node lock");
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "length too large"))?;
        node.bytes.truncate(len);
        node.synced_len = Some(node.bytes.len());
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let tree = self.tree.read().expect("memfs tree lock");
        if !tree.dirs.contains(path) {
            return Err(not_found(path));
        }
        let mut out: Vec<PathBuf> = tree
            .dirs
            .iter()
            .chain(tree.files.keys())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        out.sort();
        Ok(out)
    }
}

/// A whole file system as plain data, so that it can cross a pipe to the
/// recovery child process.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsImage {
    pub dirs: Vec<PathBuf>,
    pub files: Vec<(PathBuf, Vec<u8>)>,
}

fn write_len(out: &mut dyn Write, n: usize) -> io::Result<()> {
    out.write_all(&(n as u64).to_le_bytes())
}

fn read_len(input: &mut dyn Read, limit: u64) -> io::Result<usize> {
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf)?;
    let n = u64::from_le_bytes(buf);
    if n > limit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("length {n} over limit {limit}"),
        ));
    }
    Ok(n as usize)
}

fn path_str(path: &Path) -> io::Result<&str> {
    path.to_str()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "path is not UTF-8"))
}

/// No image the benchmark writes comes near these; they bound what a
/// damaged stream can make the child allocate.
const MAX_ENTRIES: u64 = 1 << 24;
const MAX_PATH: u64 = 4096;
const MAX_FILE: u64 = 1 << 32;

impl FsImage {
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|(_, b)| b.len() as u64).sum()
    }

    pub fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        write_len(out, self.dirs.len())?;
        for dir in &self.dirs {
            let s = path_str(dir)?;
            write_len(out, s.len())?;
            out.write_all(s.as_bytes())?;
        }
        write_len(out, self.files.len())?;
        for (path, bytes) in &self.files {
            let s = path_str(path)?;
            write_len(out, s.len())?;
            out.write_all(s.as_bytes())?;
            write_len(out, bytes.len())?;
            out.write_all(bytes)?;
        }
        Ok(())
    }

    pub fn read_from(input: &mut dyn Read) -> io::Result<FsImage> {
        fn read_path(input: &mut dyn Read) -> io::Result<PathBuf> {
            let n = read_len(input, MAX_PATH)?;
            let mut buf = vec![0u8; n];
            input.read_exact(&mut buf)?;
            String::from_utf8(buf)
                .map(PathBuf::from)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "path is not UTF-8"))
        }
        let mut image = FsImage::default();
        for _ in 0..read_len(input, MAX_ENTRIES)? {
            image.dirs.push(read_path(input)?);
        }
        for _ in 0..read_len(input, MAX_ENTRIES)? {
            let path = read_path(input)?;
            let n = read_len(input, MAX_FILE)?;
            let mut bytes = vec![0u8; n];
            input.read_exact(&mut bytes)?;
            image.files.push((path, bytes));
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_keeps_only_synced_bytes() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("d/sub")).unwrap();
        let mut a = fs.create(Path::new("d/a")).unwrap();
        a.write_all(b"durable").unwrap();
        a.sync_data().unwrap();
        a.write_all(b"-volatile").unwrap();
        let mut b = fs.create(Path::new("d/sub/b.tmp")).unwrap();
        b.write_all(b"never synced").unwrap();
        let (image, lost_bytes, lost_files) = fs.crash_image();
        assert_eq!(
            image.files,
            vec![(PathBuf::from("d/a"), b"durable".to_vec())]
        );
        assert_eq!((lost_bytes, lost_files), (9 + 12, 1));
        let counts = fs.counts();
        assert_eq!(
            (counts.fsyncs, counts.write_calls, counts.creates),
            (1, 3, 2)
        );
        assert_eq!(counts.bytes_written, 7 + 9 + 12);
    }

    #[test]
    fn image_crosses_a_pipe_unchanged() {
        let fs = MemFs::new();
        fs.create_dir_all(Path::new("root/00")).unwrap();
        let mut f = fs.create(Path::new("root/00/x.tmp")).unwrap();
        f.write_all(&[7u8; 1000]).unwrap();
        f.sync_data().unwrap();
        fs.rename(Path::new("root/00/x.tmp"), Path::new("root/00/x.blob"))
            .unwrap();
        let (image, _, _) = fs.crash_image();
        let mut wire = Vec::new();
        image.write_to(&mut wire).unwrap();
        let back = FsImage::read_from(&mut wire.as_slice()).unwrap();
        assert_eq!(back, image);
        let reopened = MemFs::from_image(back);
        assert_eq!(
            reopened.read(Path::new("root/00/x.blob")).unwrap().len(),
            1000
        );
        assert_eq!(
            reopened.list_dir(Path::new("root")).unwrap(),
            vec![PathBuf::from("root/00")]
        );
        assert!(FsImage::read_from(&mut &wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn append_reopens_existing_bytes() {
        let fs = MemFs::new();
        let mut f = fs.open_append(Path::new("wal")).unwrap();
        f.write_all(b"one\n").unwrap();
        f.sync_data().unwrap();
        drop(f);
        let mut f = fs.open_append(Path::new("wal")).unwrap();
        f.write_all(b"two\n").unwrap();
        assert_eq!(fs.read(Path::new("wal")).unwrap(), b"one\ntwo\n");
        assert_eq!(fs.len(Path::new("wal")).unwrap(), 8);
        fs.truncate(Path::new("wal"), 4).unwrap();
        assert_eq!(fs.read(Path::new("wal")).unwrap(), b"one\n");
    }
}
