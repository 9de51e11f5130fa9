//! An in-memory 9P file server.
//!
//! The guest's 9PFS component speaks to this server in request/response pairs
//! modeled on the 9P2000 message set (attach, walk, open, create, read,
//! write, clunk, remove, mkdir, stat, fsync). Wire framing is elided — the
//! simulation passes the typed [`NinePRequest`]/[`NinePResponse`] values
//! through the virtio queue instead — but the *protocol state* (fid tables,
//! qids, directory hierarchy, offsets handled per request) is real.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::payload::Payload;

/// A fid: the client-chosen handle a 9P session uses to name a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fid(pub u32);

impl fmt::Display for Fid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fid{}", self.0)
    }
}

/// A qid: the server's stable identity for a file (path id + version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qid {
    /// Unique node id.
    pub path: u64,
    /// Bumped on every modification.
    pub version: u32,
    /// True for directories.
    pub dir: bool,
}

/// Errors returned by the 9P server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NinePError {
    /// Path component not found during walk.
    NotFound(String),
    /// Fid not in the session's fid table.
    UnknownFid(Fid),
    /// Fid already in use for a new-fid argument.
    FidInUse(Fid),
    /// Operation requires a directory (or requires a file).
    NotADirectory(String),
    /// Create/mkdir target already exists.
    AlreadyExists(String),
    /// Read/write on a fid that was never opened.
    NotOpen(Fid),
    /// Directory not empty on remove.
    NotEmpty(String),
    /// The RPC payload failed validation — an armed corruption window
    /// (chaos fault injection) garbled the message in flight.
    Corrupted,
    /// The server process is wedged and the RPC deadline passed. Unlike a
    /// corruption window, a stall is not cleared by renegotiating the
    /// session: only host-side intervention helps.
    Stalled,
}

impl fmt::Display for NinePError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NinePError::NotFound(p) => write!(f, "9p: not found: {p}"),
            NinePError::UnknownFid(fid) => write!(f, "9p: unknown {fid}"),
            NinePError::FidInUse(fid) => write!(f, "9p: {fid} already in use"),
            NinePError::NotADirectory(p) => write!(f, "9p: not a directory: {p}"),
            NinePError::AlreadyExists(p) => write!(f, "9p: already exists: {p}"),
            NinePError::NotOpen(fid) => write!(f, "9p: {fid} not open"),
            NinePError::NotEmpty(p) => write!(f, "9p: directory not empty: {p}"),
            NinePError::Corrupted => f.write_str("9p: RPC payload failed validation (corrupted)"),
            NinePError::Stalled => f.write_str("9p: server stalled, RPC deadline exceeded"),
        }
    }
}

impl Error for NinePError {}

/// A request from the guest's 9PFS component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NinePRequest {
    /// Bind `fid` to the filesystem root.
    Attach {
        /// Fid to bind.
        fid: Fid,
    },
    /// Walk from `fid` along `names`, binding the result to `newfid`.
    Walk {
        /// Starting fid.
        fid: Fid,
        /// Fid to bind the walk result to.
        newfid: Fid,
        /// Path components to traverse.
        names: Vec<String>,
    },
    /// Open the file bound to `fid`.
    Open {
        /// Fid to open.
        fid: Fid,
        /// Truncate on open.
        truncate: bool,
    },
    /// Create (and open) `name` under the directory bound to `dirfid`,
    /// binding the new file to `newfid`.
    Create {
        /// Directory fid.
        dirfid: Fid,
        /// Fid for the created file.
        newfid: Fid,
        /// File name.
        name: String,
    },
    /// Make a directory `name` under `dirfid`.
    Mkdir {
        /// Parent directory fid.
        dirfid: Fid,
        /// Directory name.
        name: String,
    },
    /// Read `count` bytes at `offset`.
    Read {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: u64,
        /// Max bytes to return.
        count: u32,
    },
    /// Write `data` at `offset`.
    Write {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Payload,
    },
    /// Flush the file to stable storage.
    Fsync {
        /// Open fid.
        fid: Fid,
    },
    /// Release a fid.
    Clunk {
        /// Fid to release.
        fid: Fid,
    },
    /// Remove the file bound to `fid` (also clunks it).
    Remove {
        /// Fid to remove.
        fid: Fid,
    },
    /// Stat the file bound to `fid`.
    Stat {
        /// Fid to stat.
        fid: Fid,
    },
}

impl NinePRequest {
    /// The 9P message kind as a stable lowercase name (telemetry labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            NinePRequest::Attach { .. } => "attach",
            NinePRequest::Walk { .. } => "walk",
            NinePRequest::Open { .. } => "open",
            NinePRequest::Create { .. } => "create",
            NinePRequest::Mkdir { .. } => "mkdir",
            NinePRequest::Read { .. } => "read",
            NinePRequest::Write { .. } => "write",
            NinePRequest::Fsync { .. } => "fsync",
            NinePRequest::Clunk { .. } => "clunk",
            NinePRequest::Remove { .. } => "remove",
            NinePRequest::Stat { .. } => "stat",
        }
    }
}

/// A response from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NinePResponse {
    /// Successful attach/walk/open/create/mkdir: the file's qid.
    Qid(Qid),
    /// Successful read: the data (may be shorter than requested).
    Data(Payload),
    /// Successful write: bytes written.
    Count(u32),
    /// Successful stat: qid and file length.
    Stat {
        /// File identity.
        qid: Qid,
        /// File length in bytes.
        length: u64,
    },
    /// Successful clunk/remove/fsync.
    Ok,
    /// Any failure.
    Err(NinePError),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeBody {
    Dir(BTreeMap<String, u64>),
    File(Vec<u8>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    parent: u64,
    version: u32,
    body: NodeBody,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FidState {
    node: u64,
    open: bool,
}

/// Server-side misbehaviour armed by the chaos harness: the 9P *server*
/// (not the guest) is the faulty party, exercising the recovery machinery's
/// own dependency on the host plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NinePGlitch {
    /// The next `count` RPCs fail loudly with [`NinePError::Corrupted`].
    /// Cleared early by a fresh `Attach` (session renegotiation).
    Corrupt {
        /// Remaining RPCs to corrupt.
        count: u32,
    },
    /// The next `count` successful `Read` responses have their payload
    /// bytes flipped while the status still reports success — the
    /// acknowledged-loss hazard the chaos oracles exist to catch.
    CorruptSilent {
        /// Remaining reads to corrupt.
        count: u32,
    },
    /// Every RPC fails with [`NinePError::Stalled`] until the host process
    /// is replaced; neither re-attach nor [`NinePServer::clear_session_glitch`]
    /// clears it.
    Stall,
}

/// The in-memory 9P file server.
///
/// # Example
///
/// ```
/// use vampos_host::{Fid, NinePRequest, NinePResponse, NinePServer};
///
/// let mut srv = NinePServer::new();
/// srv.put_file("/www/index.html", b"<html>hi</html>");
///
/// srv.handle(NinePRequest::Attach { fid: Fid(0) });
/// let resp = srv.handle(NinePRequest::Walk {
///     fid: Fid(0),
///     newfid: Fid(1),
///     names: vec!["www".into(), "index.html".into()],
/// });
/// assert!(matches!(resp, NinePResponse::Qid(_)));
/// ```
#[derive(Debug, Clone)]
pub struct NinePServer {
    nodes: BTreeMap<u64, Node>,
    next_node: u64,
    fids: BTreeMap<Fid, FidState>,
    fsyncs: u64,
    requests: u64,
    glitch: Option<NinePGlitch>,
}

const ROOT: u64 = 1;

impl Default for NinePServer {
    fn default() -> Self {
        Self::new()
    }
}

impl NinePServer {
    /// Creates a server with an empty root directory.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            ROOT,
            Node {
                parent: ROOT,
                version: 0,
                body: NodeBody::Dir(BTreeMap::new()),
            },
        );
        NinePServer {
            nodes,
            next_node: ROOT + 1,
            fids: BTreeMap::new(),
            fsyncs: 0,
            requests: 0,
            glitch: None,
        }
    }

    fn qid_of(&self, node_id: u64) -> Qid {
        let node = &self.nodes[&node_id];
        Qid {
            path: node_id,
            version: node.version,
            dir: matches!(node.body, NodeBody::Dir(_)),
        }
    }

    fn resolve(&self, start: u64, names: &[String]) -> Result<u64, NinePError> {
        let mut cur = start;
        for name in names {
            if name == ".." {
                cur = self.nodes[&cur].parent;
                continue;
            }
            match &self.nodes[&cur].body {
                NodeBody::Dir(children) => {
                    cur = *children
                        .get(name)
                        .ok_or_else(|| NinePError::NotFound(name.clone()))?;
                }
                NodeBody::File(_) => return Err(NinePError::NotADirectory(name.clone())),
            }
        }
        Ok(cur)
    }

    fn create_node(&mut self, dirfid: Fid, name: &str, body: NodeBody) -> Result<u64, NinePError> {
        let dir_node = self
            .fids
            .get(&dirfid)
            .ok_or(NinePError::UnknownFid(dirfid))?
            .node;
        let new_id = self.next_node;
        match &mut self
            .nodes
            .get_mut(&dir_node)
            .expect("fid points to live node")
            .body
        {
            NodeBody::Dir(children) => {
                if children.contains_key(name) {
                    return Err(NinePError::AlreadyExists(name.to_owned()));
                }
                children.insert(name.to_owned(), new_id);
            }
            NodeBody::File(_) => return Err(NinePError::NotADirectory(name.to_owned())),
        }
        self.next_node += 1;
        self.nodes.insert(
            new_id,
            Node {
                parent: dir_node,
                version: 0,
                body,
            },
        );
        Ok(new_id)
    }

    /// Handles one request, returning the protocol response (errors are
    /// carried in [`NinePResponse::Err`], mirroring 9P's `Rerror`).
    pub fn handle(&mut self, req: NinePRequest) -> NinePResponse {
        self.requests += 1;
        match self.glitch {
            Some(NinePGlitch::Stall) => return NinePResponse::Err(NinePError::Stalled),
            Some(NinePGlitch::Corrupt { .. }) | Some(NinePGlitch::CorruptSilent { .. })
                if matches!(req, NinePRequest::Attach { .. }) =>
            {
                // A fresh attach renegotiates the session; corruption
                // windows do not survive it (a stall would).
                self.glitch = None;
            }
            Some(NinePGlitch::Corrupt { count }) => {
                self.glitch = (count > 1).then_some(NinePGlitch::Corrupt { count: count - 1 });
                return NinePResponse::Err(NinePError::Corrupted);
            }
            _ => {}
        }
        let is_read = matches!(req, NinePRequest::Read { .. });
        let mut resp = match self.handle_inner(req) {
            Ok(resp) => resp,
            Err(e) => NinePResponse::Err(e),
        };
        if let Some(NinePGlitch::CorruptSilent { count }) = self.glitch {
            if is_read {
                if let NinePResponse::Data(data) = &mut resp {
                    // Copy on write: the garbled bytes go into a fresh
                    // buffer, never into one another holder shares.
                    *data = data.iter().map(|byte| byte ^ 0x5a).collect();
                }
                self.glitch =
                    (count > 1).then_some(NinePGlitch::CorruptSilent { count: count - 1 });
            }
        }
        resp
    }

    fn handle_inner(&mut self, req: NinePRequest) -> Result<NinePResponse, NinePError> {
        match req {
            NinePRequest::Attach { fid } => {
                if self.fids.contains_key(&fid) {
                    return Err(NinePError::FidInUse(fid));
                }
                self.fids.insert(
                    fid,
                    FidState {
                        node: ROOT,
                        open: false,
                    },
                );
                Ok(NinePResponse::Qid(self.qid_of(ROOT)))
            }
            NinePRequest::Walk { fid, newfid, names } => {
                let start = self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?.node;
                if newfid != fid && self.fids.contains_key(&newfid) {
                    return Err(NinePError::FidInUse(newfid));
                }
                let node = self.resolve(start, &names)?;
                self.fids.insert(newfid, FidState { node, open: false });
                Ok(NinePResponse::Qid(self.qid_of(node)))
            }
            NinePRequest::Open { fid, truncate } => {
                let state = *self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?;
                if truncate {
                    let node = self.nodes.get_mut(&state.node).expect("live node");
                    if let NodeBody::File(data) = &mut node.body {
                        data.clear();
                        node.version += 1;
                    }
                }
                self.fids.insert(
                    fid,
                    FidState {
                        node: state.node,
                        open: true,
                    },
                );
                Ok(NinePResponse::Qid(self.qid_of(state.node)))
            }
            NinePRequest::Create {
                dirfid,
                newfid,
                name,
            } => {
                if self.fids.contains_key(&newfid) {
                    return Err(NinePError::FidInUse(newfid));
                }
                let node = self.create_node(dirfid, &name, NodeBody::File(Vec::new()))?;
                self.fids.insert(newfid, FidState { node, open: true });
                Ok(NinePResponse::Qid(self.qid_of(node)))
            }
            NinePRequest::Mkdir { dirfid, name } => {
                let node = self.create_node(dirfid, &name, NodeBody::Dir(BTreeMap::new()))?;
                Ok(NinePResponse::Qid(self.qid_of(node)))
            }
            NinePRequest::Read { fid, offset, count } => {
                let state = *self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?;
                if !state.open {
                    return Err(NinePError::NotOpen(fid));
                }
                match &self.nodes[&state.node].body {
                    NodeBody::File(data) => {
                        let start = (offset as usize).min(data.len());
                        let end = (start + count as usize).min(data.len());
                        Ok(NinePResponse::Data(Payload::from(&data[start..end])))
                    }
                    NodeBody::Dir(children) => {
                        // Directory read: newline-separated names (enough for
                        // the guest's readdir needs).
                        let listing = children
                            .keys()
                            .cloned()
                            .collect::<Vec<_>>()
                            .join("\n")
                            .into_bytes();
                        let start = (offset as usize).min(listing.len());
                        let end = (start + count as usize).min(listing.len());
                        Ok(NinePResponse::Data(Payload::from(&listing[start..end])))
                    }
                }
            }
            NinePRequest::Write { fid, offset, data } => {
                let state = *self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?;
                if !state.open {
                    return Err(NinePError::NotOpen(fid));
                }
                let node = self.nodes.get_mut(&state.node).expect("live node");
                match &mut node.body {
                    NodeBody::File(bytes) => {
                        let end = offset as usize + data.len();
                        if bytes.len() < end {
                            bytes.resize(end, 0);
                        }
                        bytes[offset as usize..end].copy_from_slice(&data);
                        node.version += 1;
                        Ok(NinePResponse::Count(data.len() as u32))
                    }
                    NodeBody::Dir(_) => Err(NinePError::NotADirectory(String::new())),
                }
            }
            NinePRequest::Fsync { fid } => {
                let state = *self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?;
                if !state.open {
                    return Err(NinePError::NotOpen(fid));
                }
                self.fsyncs += 1;
                Ok(NinePResponse::Ok)
            }
            NinePRequest::Clunk { fid } => {
                self.fids.remove(&fid).ok_or(NinePError::UnknownFid(fid))?;
                Ok(NinePResponse::Ok)
            }
            NinePRequest::Remove { fid } => {
                let state = self.fids.remove(&fid).ok_or(NinePError::UnknownFid(fid))?;
                if let NodeBody::Dir(children) = &self.nodes[&state.node].body {
                    if !children.is_empty() {
                        // Re-insert the fid: remove failed, fid stays valid.
                        self.fids.insert(fid, state);
                        return Err(NinePError::NotEmpty(String::new()));
                    }
                }
                let parent = self.nodes[&state.node].parent;
                if let NodeBody::Dir(children) =
                    &mut self.nodes.get_mut(&parent).expect("parent exists").body
                {
                    children.retain(|_, &mut id| id != state.node);
                }
                self.nodes.remove(&state.node);
                Ok(NinePResponse::Ok)
            }
            NinePRequest::Stat { fid } => {
                let state = *self.fids.get(&fid).ok_or(NinePError::UnknownFid(fid))?;
                let length = match &self.nodes[&state.node].body {
                    NodeBody::File(data) => data.len() as u64,
                    NodeBody::Dir(children) => children.len() as u64,
                };
                Ok(NinePResponse::Stat {
                    qid: self.qid_of(state.node),
                    length,
                })
            }
        }
    }

    /// Host-side helper: create `path` (intermediate directories included)
    /// with `data`, bypassing the protocol. Used to stage workload fixtures.
    pub fn put_file(&mut self, path: &str, data: &[u8]) {
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        assert!(!parts.is_empty(), "empty path");
        let mut cur = ROOT;
        for dir in &parts[..parts.len() - 1] {
            let existing = match &self.nodes[&cur].body {
                NodeBody::Dir(children) => children.get(*dir).copied(),
                NodeBody::File(_) => panic!("{dir} is a file"),
            };
            cur = existing.unwrap_or_else(|| {
                let id = self.next_node;
                self.next_node += 1;
                self.nodes.insert(
                    id,
                    Node {
                        parent: cur,
                        version: 0,
                        body: NodeBody::Dir(BTreeMap::new()),
                    },
                );
                match &mut self.nodes.get_mut(&cur).unwrap().body {
                    NodeBody::Dir(children) => {
                        children.insert((*dir).to_owned(), id);
                    }
                    NodeBody::File(_) => unreachable!(),
                }
                id
            });
        }
        let name = *parts.last().unwrap();
        let file_id = match &self.nodes[&cur].body {
            NodeBody::Dir(children) => children.get(name).copied(),
            NodeBody::File(_) => panic!("parent is a file"),
        };
        let file_id = file_id.unwrap_or_else(|| {
            let id = self.next_node;
            self.next_node += 1;
            self.nodes.insert(
                id,
                Node {
                    parent: cur,
                    version: 0,
                    body: NodeBody::File(Vec::new()),
                },
            );
            match &mut self.nodes.get_mut(&cur).unwrap().body {
                NodeBody::Dir(children) => {
                    children.insert(name.to_owned(), id);
                }
                NodeBody::File(_) => unreachable!(),
            }
            id
        });
        match &mut self.nodes.get_mut(&file_id).unwrap().body {
            NodeBody::File(bytes) => *bytes = data.to_vec(),
            NodeBody::Dir(_) => panic!("{name} is a directory"),
        }
    }

    /// Host-side helper: read a file's contents by path.
    pub fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        let parts: Vec<String> = path
            .split('/')
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect();
        let node = self.resolve(ROOT, &parts).ok()?;
        match &self.nodes[&node].body {
            NodeBody::File(data) => Some(data.clone()),
            NodeBody::Dir(_) => None,
        }
    }

    /// Drops every fid in the table; models the session loss the server
    /// observes when the guest's 9PFS component crashes before re-attach.
    pub fn drop_all_fids(&mut self) {
        self.fids.clear();
    }

    /// Arms a server-side glitch (chaos fault injection). Replaces any
    /// previously armed glitch.
    pub fn inject_glitch(&mut self, glitch: NinePGlitch) {
        self.glitch = Some(glitch);
    }

    /// Operator-side session repair: clears a corruption window (the guest
    /// tears the session down and renegotiates). A [`NinePGlitch::Stall`]
    /// is a wedge in the server process itself and is *not* cleared — only
    /// replacing the host process (fleet failover) escapes it.
    pub fn clear_session_glitch(&mut self) {
        if !matches!(self.glitch, Some(NinePGlitch::Stall)) {
            self.glitch = None;
        }
    }

    /// The currently armed glitch, if any.
    pub fn glitch(&self) -> Option<NinePGlitch> {
        self.glitch
    }

    /// Number of `fsync` requests served (the AOF experiments read this).
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Total requests served.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Number of live fids.
    pub fn fid_count(&self) -> usize {
        self.fids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attach(srv: &mut NinePServer) {
        assert!(matches!(
            srv.handle(NinePRequest::Attach { fid: Fid(0) }),
            NinePResponse::Qid(q) if q.dir
        ));
    }

    #[test]
    fn attach_walk_open_read_round_trip() {
        let mut srv = NinePServer::new();
        srv.put_file("/etc/motd", b"welcome");
        attach(&mut srv);
        let resp = srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["etc".into(), "motd".into()],
        });
        assert!(matches!(resp, NinePResponse::Qid(q) if !q.dir));
        srv.handle(NinePRequest::Open {
            fid: Fid(1),
            truncate: false,
        });
        let resp = srv.handle(NinePRequest::Read {
            fid: Fid(1),
            offset: 0,
            count: 100,
        });
        assert_eq!(resp, NinePResponse::Data(Payload::from(b"welcome")));
    }

    #[test]
    fn read_beyond_eof_returns_short_data() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"abc");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        srv.handle(NinePRequest::Open {
            fid: Fid(1),
            truncate: false,
        });
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(1),
                offset: 2,
                count: 100
            }),
            NinePResponse::Data(Payload::from(b"c"))
        );
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(1),
                offset: 99,
                count: 4
            }),
            NinePResponse::Data(Payload::new())
        );
    }

    #[test]
    fn create_write_extends_and_overwrites() {
        let mut srv = NinePServer::new();
        attach(&mut srv);
        srv.handle(NinePRequest::Create {
            dirfid: Fid(0),
            newfid: Fid(1),
            name: "log".into(),
        });
        srv.handle(NinePRequest::Write {
            fid: Fid(1),
            offset: 0,
            data: Payload::from(b"hello"),
        });
        srv.handle(NinePRequest::Write {
            fid: Fid(1),
            offset: 3,
            data: Payload::from(b"LOWS"),
        });
        assert_eq!(srv.read_file("/log").unwrap(), b"helLOWS");
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut srv = NinePServer::new();
        attach(&mut srv);
        srv.handle(NinePRequest::Create {
            dirfid: Fid(0),
            newfid: Fid(1),
            name: "sparse".into(),
        });
        srv.handle(NinePRequest::Write {
            fid: Fid(1),
            offset: 4,
            data: Payload::from(b"x"),
        });
        assert_eq!(srv.read_file("/sparse").unwrap(), b"\0\0\0\0x");
    }

    #[test]
    fn open_with_truncate_clears_and_bumps_version() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"old");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        let v_before = match srv.handle(NinePRequest::Stat { fid: Fid(1) }) {
            NinePResponse::Stat { qid, .. } => qid.version,
            other => panic!("unexpected: {other:?}"),
        };
        srv.handle(NinePRequest::Open {
            fid: Fid(1),
            truncate: true,
        });
        assert_eq!(srv.read_file("/f").unwrap(), b"");
        let v_after = match srv.handle(NinePRequest::Stat { fid: Fid(1) }) {
            NinePResponse::Stat { qid, .. } => qid.version,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(v_after > v_before);
    }

    #[test]
    fn stat_reports_length() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"12345");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        assert!(matches!(
            srv.handle(NinePRequest::Stat { fid: Fid(1) }),
            NinePResponse::Stat { length: 5, .. }
        ));
    }

    #[test]
    fn clunk_releases_fid_for_reuse() {
        let mut srv = NinePServer::new();
        attach(&mut srv);
        srv.handle(NinePRequest::Clunk { fid: Fid(0) });
        assert_eq!(srv.fid_count(), 0);
        attach(&mut srv); // fid 0 reusable
    }

    #[test]
    fn unknown_and_duplicate_fids_error() {
        let mut srv = NinePServer::new();
        assert_eq!(
            srv.handle(NinePRequest::Clunk { fid: Fid(9) }),
            NinePResponse::Err(NinePError::UnknownFid(Fid(9)))
        );
        attach(&mut srv);
        assert_eq!(
            srv.handle(NinePRequest::Attach { fid: Fid(0) }),
            NinePResponse::Err(NinePError::FidInUse(Fid(0)))
        );
    }

    #[test]
    fn walk_through_file_errors() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"x");
        attach(&mut srv);
        assert_eq!(
            srv.handle(NinePRequest::Walk {
                fid: Fid(0),
                newfid: Fid(1),
                names: vec!["f".into(), "deeper".into()],
            }),
            NinePResponse::Err(NinePError::NotADirectory("deeper".into()))
        );
    }

    #[test]
    fn mkdir_then_create_inside() {
        let mut srv = NinePServer::new();
        attach(&mut srv);
        srv.handle(NinePRequest::Mkdir {
            dirfid: Fid(0),
            name: "www".into(),
        });
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["www".into()],
        });
        srv.handle(NinePRequest::Create {
            dirfid: Fid(1),
            newfid: Fid(2),
            name: "a.html".into(),
        });
        srv.handle(NinePRequest::Write {
            fid: Fid(2),
            offset: 0,
            data: Payload::from(b"<p>"),
        });
        assert_eq!(srv.read_file("/www/a.html").unwrap(), b"<p>");
    }

    #[test]
    fn remove_file_and_nonempty_dir() {
        let mut srv = NinePServer::new();
        srv.put_file("/d/f", b"x");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["d".into()],
        });
        assert_eq!(
            srv.handle(NinePRequest::Remove { fid: Fid(1) }),
            NinePResponse::Err(NinePError::NotEmpty(String::new()))
        );
        // fid survives the failed remove
        srv.handle(NinePRequest::Walk {
            fid: Fid(1),
            newfid: Fid(2),
            names: vec!["f".into()],
        });
        assert_eq!(
            srv.handle(NinePRequest::Remove { fid: Fid(2) }),
            NinePResponse::Ok
        );
        assert_eq!(srv.read_file("/d/f"), None);
        assert_eq!(
            srv.handle(NinePRequest::Remove { fid: Fid(1) }),
            NinePResponse::Ok
        );
    }

    #[test]
    fn fsync_requires_open_and_counts() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"x");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        assert_eq!(
            srv.handle(NinePRequest::Fsync { fid: Fid(1) }),
            NinePResponse::Err(NinePError::NotOpen(Fid(1)))
        );
        srv.handle(NinePRequest::Open {
            fid: Fid(1),
            truncate: false,
        });
        assert_eq!(
            srv.handle(NinePRequest::Fsync { fid: Fid(1) }),
            NinePResponse::Ok
        );
        assert_eq!(srv.fsync_count(), 1);
    }

    #[test]
    fn read_write_require_open() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"x");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(1),
                offset: 0,
                count: 1
            }),
            NinePResponse::Err(NinePError::NotOpen(Fid(1)))
        );
    }

    #[test]
    fn drop_all_fids_models_guest_crash() {
        let mut srv = NinePServer::new();
        attach(&mut srv);
        assert_eq!(srv.fid_count(), 1);
        srv.drop_all_fids();
        assert_eq!(srv.fid_count(), 0);
        attach(&mut srv); // re-attach after guest 9PFS reboot
    }

    #[test]
    fn directory_read_lists_children() {
        let mut srv = NinePServer::new();
        srv.put_file("/a", b"1");
        srv.put_file("/b", b"2");
        attach(&mut srv);
        srv.handle(NinePRequest::Open {
            fid: Fid(0),
            truncate: false,
        });
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(0),
                offset: 0,
                count: 64
            }),
            NinePResponse::Data(Payload::from(b"a\nb"))
        );
    }

    #[test]
    fn corrupt_window_fails_loudly_then_drains() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"x");
        attach(&mut srv);
        srv.inject_glitch(NinePGlitch::Corrupt { count: 2 });
        for _ in 0..2 {
            assert_eq!(
                srv.handle(NinePRequest::Stat { fid: Fid(0) }),
                NinePResponse::Err(NinePError::Corrupted)
            );
        }
        // Window exhausted: service resumes.
        assert!(matches!(
            srv.handle(NinePRequest::Stat { fid: Fid(0) }),
            NinePResponse::Stat { .. }
        ));
        assert_eq!(srv.glitch(), None);
    }

    #[test]
    fn attach_clears_corruption_but_not_stall() {
        let mut srv = NinePServer::new();
        srv.inject_glitch(NinePGlitch::Corrupt { count: 100 });
        attach(&mut srv); // renegotiation clears the window
        assert_eq!(srv.glitch(), None);

        srv.inject_glitch(NinePGlitch::Stall);
        assert_eq!(
            srv.handle(NinePRequest::Attach { fid: Fid(7) }),
            NinePResponse::Err(NinePError::Stalled)
        );
        srv.clear_session_glitch(); // session repair cannot unwedge a stall
        assert_eq!(srv.glitch(), Some(NinePGlitch::Stall));
    }

    #[test]
    fn silent_corruption_flips_read_bytes_with_success_status() {
        let mut srv = NinePServer::new();
        srv.put_file("/f", b"abc");
        attach(&mut srv);
        srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["f".into()],
        });
        srv.handle(NinePRequest::Open {
            fid: Fid(1),
            truncate: false,
        });
        srv.inject_glitch(NinePGlitch::CorruptSilent { count: 1 });
        // Non-read requests pass through unscathed and do not consume the window.
        assert!(matches!(
            srv.handle(NinePRequest::Stat { fid: Fid(1) }),
            NinePResponse::Stat { .. }
        ));
        let garbled: Vec<u8> = b"abc".iter().map(|b| b ^ 0x5a).collect();
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(1),
                offset: 0,
                count: 64
            }),
            NinePResponse::Data(Payload::from(garbled))
        );
        // Window consumed: the next read is clean.
        assert_eq!(
            srv.handle(NinePRequest::Read {
                fid: Fid(1),
                offset: 0,
                count: 64
            }),
            NinePResponse::Data(Payload::from(b"abc"))
        );
        srv.inject_glitch(NinePGlitch::CorruptSilent { count: 3 });
        srv.clear_session_glitch();
        assert_eq!(srv.glitch(), None);
    }

    #[test]
    fn dot_dot_walks_to_parent() {
        let mut srv = NinePServer::new();
        srv.put_file("/d/f", b"x");
        attach(&mut srv);
        let resp = srv.handle(NinePRequest::Walk {
            fid: Fid(0),
            newfid: Fid(1),
            names: vec!["d".into(), "..".into(), "d".into(), "f".into()],
        });
        assert!(matches!(resp, NinePResponse::Qid(q) if !q.dir));
    }
}
