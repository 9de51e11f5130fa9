//! The external network peer: client endpoints talking TCP to the guest.
//!
//! The paper's evaluation drives Nginx/Redis/Echo with clients (siege,
//! redis-benchmark) over real TCP. The property that matters for VampOS is
//! that **TCP connection state lives on both ends**: packet sequence and ACK
//! numbers are "given at runtime and updated via interactions with external
//! communication partners" (§V-B), which is why LWIP needs runtime-data
//! extraction on reboot — replaying `socket()`/`bind()` alone cannot restore
//! them, and a peer will RST a connection whose sequence numbers are wrong.
//!
//! [`HostNetwork`] implements that peer: a simplified TCP (SYN/SYN-ACK/ACK
//! handshake, byte-counted sequence numbers, FIN teardown, RST on sequence
//! violations; no loss, no retransmission, unbounded window) plus a client
//! API the workload generators use.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// TCP header flags (the subset the simulation uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// A pure SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// A pure ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    /// A reset.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        f.write_str(&parts.join("|"))
    }
}

/// One simulated TCP segment on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sender's port.
    pub src_port: u16,
    /// Receiver's port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgement number (next byte expected from the peer).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total simulated wire size (a 40-byte TCP/IP header + payload).
    pub fn wire_len(&self) -> usize {
        40 + self.payload.len()
    }
}

/// Identifies one client connection on the host side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientConnId(pub u64);

/// Lifecycle of a client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientConnState {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Handshake complete.
    Established,
    /// Client sent FIN, waiting for the guest's FIN/ACK.
    FinWait,
    /// Orderly shutdown completed.
    Closed,
    /// Connection was reset (by either side).
    Reset,
}

#[derive(Debug, Clone)]
struct ClientConn {
    local_port: u16,
    remote_port: u16,
    state: ClientConnState,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect from the guest.
    rcv_nxt: u32,
    recv_buf: VecDeque<u8>,
}

/// Errors from the client-side network API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetPeerError {
    /// Unknown connection id.
    UnknownConn(ClientConnId),
    /// Operation requires an established connection.
    NotEstablished(ClientConnId, ClientConnState),
}

impl fmt::Display for NetPeerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetPeerError::UnknownConn(id) => write!(f, "unknown client connection {id:?}"),
            NetPeerError::NotEstablished(id, s) => {
                write!(f, "client connection {id:?} not established (state {s:?})")
            }
        }
    }
}

impl std::error::Error for NetPeerError {}

/// The host-side network: wire queues plus the client TCP endpoints.
///
/// # Example
///
/// ```
/// use vampos_host::{HostNetwork, TcpFlags};
///
/// let mut net = HostNetwork::new();
/// let conn = net.connect(80);
/// // The SYN is now on the wire towards the guest.
/// let syn = net.take_frame_for_guest().unwrap();
/// assert_eq!(syn.flags, TcpFlags::SYN);
/// assert_eq!(syn.dst_port, 80);
/// # let _ = conn;
/// ```
#[derive(Debug, Clone, Default)]
pub struct HostNetwork {
    to_guest: VecDeque<Frame>,
    conns: BTreeMap<ClientConnId, ClientConn>,
    by_local_port: BTreeMap<u16, ClientConnId>,
    next_conn: u64,
    next_port: u16,
    seq_errors: u64,
    resets_seen: u64,
    frames_from_guest: u64,
    bytes_from_guest: u64,
}

const CLIENT_PORT_BASE: u16 = 40_000;
const CLIENT_ISS_BASE: u32 = 1_000;

impl HostNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        HostNetwork {
            next_port: CLIENT_PORT_BASE,
            ..HostNetwork::default()
        }
    }

    /// Opens a new client connection to `guest_port`: allocates a client
    /// port, sends a SYN, and returns the connection id. The connection is
    /// [`ClientConnState::SynSent`] until the guest answers.
    pub fn connect(&mut self, guest_port: u16) -> ClientConnId {
        let id = ClientConnId(self.next_conn);
        self.next_conn += 1;
        let local_port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(CLIENT_PORT_BASE);
        let iss = CLIENT_ISS_BASE + (id.0 as u32).wrapping_mul(10_000);
        self.conns.insert(
            id,
            ClientConn {
                local_port,
                remote_port: guest_port,
                state: ClientConnState::SynSent,
                snd_nxt: iss + 1, // SYN consumes one sequence number
                rcv_nxt: 0,
                recv_buf: VecDeque::new(),
            },
        );
        self.by_local_port.insert(local_port, id);
        self.to_guest.push_back(Frame {
            src_port: local_port,
            dst_port: guest_port,
            seq: iss,
            ack: 0,
            flags: TcpFlags::SYN,
            payload: Vec::new(),
        });
        id
    }

    /// Sends `payload` on an established connection.
    ///
    /// # Errors
    ///
    /// [`NetPeerError::UnknownConn`] / [`NetPeerError::NotEstablished`].
    pub fn send(&mut self, id: ClientConnId, payload: &[u8]) -> Result<(), NetPeerError> {
        let conn = self
            .conns
            .get_mut(&id)
            .ok_or(NetPeerError::UnknownConn(id))?;
        if conn.state != ClientConnState::Established {
            return Err(NetPeerError::NotEstablished(id, conn.state));
        }
        let frame = Frame {
            src_port: conn.local_port,
            dst_port: conn.remote_port,
            seq: conn.snd_nxt,
            ack: conn.rcv_nxt,
            flags: TcpFlags::ACK,
            payload: payload.to_vec(),
        };
        conn.snd_nxt = conn.snd_nxt.wrapping_add(payload.len() as u32);
        self.to_guest.push_back(frame);
        Ok(())
    }

    /// Drains any bytes received from the guest on this connection.
    ///
    /// # Errors
    ///
    /// [`NetPeerError::UnknownConn`] for unknown ids.
    pub fn recv(&mut self, id: ClientConnId) -> Result<Vec<u8>, NetPeerError> {
        let conn = self
            .conns
            .get_mut(&id)
            .ok_or(NetPeerError::UnknownConn(id))?;
        let len = conn.recv_buf.len();
        Ok(take_front(&mut conn.recv_buf, len))
    }

    /// Starts an orderly close (sends FIN).
    ///
    /// # Errors
    ///
    /// [`NetPeerError::UnknownConn`] for unknown ids.
    pub fn close(&mut self, id: ClientConnId) -> Result<(), NetPeerError> {
        let conn = self
            .conns
            .get_mut(&id)
            .ok_or(NetPeerError::UnknownConn(id))?;
        if matches!(
            conn.state,
            ClientConnState::Closed | ClientConnState::Reset | ClientConnState::FinWait
        ) {
            return Ok(());
        }
        let frame = Frame {
            src_port: conn.local_port,
            dst_port: conn.remote_port,
            seq: conn.snd_nxt,
            ack: conn.rcv_nxt,
            flags: TcpFlags::FIN_ACK,
            payload: Vec::new(),
        };
        conn.snd_nxt = conn.snd_nxt.wrapping_add(1); // FIN consumes one
        conn.state = ClientConnState::FinWait;
        self.to_guest.push_back(frame);
        Ok(())
    }

    /// Current state of a connection.
    ///
    /// # Errors
    ///
    /// [`NetPeerError::UnknownConn`] for unknown ids.
    pub fn state(&self, id: ClientConnId) -> Result<ClientConnState, NetPeerError> {
        self.conns
            .get(&id)
            .map(|c| c.state)
            .ok_or(NetPeerError::UnknownConn(id))
    }

    /// Next frame queued for delivery to the guest, if any. Called by the
    /// host's virtio-net backend when the guest polls RX.
    pub fn take_frame_for_guest(&mut self) -> Option<Frame> {
        self.to_guest.pop_front()
    }

    /// Number of frames waiting for the guest.
    pub fn pending_for_guest(&self) -> usize {
        self.to_guest.len()
    }

    /// Processes a frame sent by the guest. This is the peer TCP machine:
    /// it validates sequence numbers and answers with ACKs — or a RST when
    /// the guest's state is inconsistent (e.g. after an LWIP reboot that
    /// failed to restore its connection table).
    pub fn deliver_from_guest(&mut self, frame: Frame) {
        self.frames_from_guest += 1;
        self.bytes_from_guest += frame.payload.len() as u64;
        let Some(&id) = self.by_local_port.get(&frame.dst_port) else {
            // No such endpoint: answer RST (unless this already is one).
            if !frame.flags.rst {
                self.to_guest.push_back(Frame {
                    src_port: frame.dst_port,
                    dst_port: frame.src_port,
                    seq: frame.ack,
                    ack: 0,
                    flags: TcpFlags::RST,
                    payload: Vec::new(),
                });
            }
            return;
        };
        let conn = self.conns.get_mut(&id).expect("port map in sync");

        if frame.flags.rst {
            conn.state = ClientConnState::Reset;
            self.resets_seen += 1;
            return;
        }

        match conn.state {
            ClientConnState::SynSent => {
                if frame.flags.syn && frame.flags.ack {
                    if frame.ack != conn.snd_nxt {
                        self.seq_errors += 1;
                        self.reset(id);
                        return;
                    }
                    conn.rcv_nxt = frame.seq.wrapping_add(1);
                    conn.state = ClientConnState::Established;
                    let ack = Frame {
                        src_port: conn.local_port,
                        dst_port: conn.remote_port,
                        seq: conn.snd_nxt,
                        ack: conn.rcv_nxt,
                        flags: TcpFlags::ACK,
                        payload: Vec::new(),
                    };
                    self.to_guest.push_back(ack);
                }
            }
            ClientConnState::Established | ClientConnState::FinWait => {
                let mut advanced = false;
                if !frame.payload.is_empty() {
                    if frame.seq != conn.rcv_nxt {
                        self.seq_errors += 1;
                        self.reset(id);
                        return;
                    }
                    conn.rcv_nxt = conn.rcv_nxt.wrapping_add(frame.payload.len() as u32);
                    conn.recv_buf.extend(frame.payload.iter().copied());
                    advanced = true;
                }
                if frame.flags.fin {
                    if frame.seq.wrapping_add(frame.payload.len() as u32) != conn.rcv_nxt {
                        self.seq_errors += 1;
                        self.reset(id);
                        return;
                    }
                    conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                    conn.state = ClientConnState::Closed;
                    advanced = true;
                }
                if advanced {
                    let ack = Frame {
                        src_port: conn.local_port,
                        dst_port: conn.remote_port,
                        seq: conn.snd_nxt,
                        ack: conn.rcv_nxt,
                        flags: TcpFlags::ACK,
                        payload: Vec::new(),
                    };
                    self.to_guest.push_back(ack);
                }
            }
            ClientConnState::Closed | ClientConnState::Reset => {
                // Stray traffic on a dead connection: RST.
                self.reset(id);
            }
        }
    }

    fn reset(&mut self, id: ClientConnId) {
        let conn = self.conns.get_mut(&id).expect("live conn");
        conn.state = ClientConnState::Reset;
        self.resets_seen += 1;
        let rst = Frame {
            src_port: conn.local_port,
            dst_port: conn.remote_port,
            seq: conn.snd_nxt,
            ack: conn.rcv_nxt,
            flags: TcpFlags::RST,
            payload: Vec::new(),
        };
        self.to_guest.push_back(rst);
    }

    /// Sequence-number violations observed from the guest so far.
    pub fn seq_errors(&self) -> u64 {
        self.seq_errors
    }

    /// Connections that ended in a reset (either direction).
    pub fn resets_seen(&self) -> u64 {
        self.resets_seen
    }

    /// Frames received from the guest.
    pub fn frames_from_guest(&self) -> u64 {
        self.frames_from_guest
    }

    /// Payload bytes received from the guest.
    pub fn bytes_from_guest(&self) -> u64 {
        self.bytes_from_guest
    }

    /// Drops every client connection and queued frame, as a full guest
    /// reboot would (all peers see their connections die).
    pub fn reset_all(&mut self) {
        for conn in self.conns.values_mut() {
            if matches!(
                conn.state,
                ClientConnState::SynSent | ClientConnState::Established | ClientConnState::FinWait
            ) {
                conn.state = ClientConnState::Reset;
                self.resets_seen += 1;
            }
        }
        self.to_guest.clear();
    }
}

/// Removes the first `n` bytes of `buf` (at most its length) and returns
/// them, copying the ring's two contiguous halves instead of moving the
/// bytes one at a time.
pub fn take_front(buf: &mut VecDeque<u8>, n: usize) -> Vec<u8> {
    let n = n.min(buf.len());
    let (head, tail) = buf.as_slices();
    let from_head = n.min(head.len());
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&head[..from_head]);
    out.extend_from_slice(&tail[..n - from_head]);
    buf.drain(..n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_front_matches_a_bytewise_drain_across_the_ring_wrap() {
        for n in [0, 1, 5, 8, 11, 40] {
            // A ring whose contents wrap: fill, consume the front, refill.
            let mut buf: VecDeque<u8> = VecDeque::with_capacity(16);
            buf.extend(0..12u8);
            buf.drain(..7);
            buf.extend(100..107u8);
            assert!(!buf.as_slices().1.is_empty(), "contents wrap");
            let mut reference = buf.clone();
            let want: Vec<u8> = reference.drain(..n.min(reference.len())).collect();
            assert_eq!(take_front(&mut buf, n), want, "n = {n}");
            assert_eq!(buf, reference, "n = {n}");
        }
    }

    /// Simulate the guest side of a handshake by hand.
    fn complete_handshake(net: &mut HostNetwork, id: ClientConnId) -> (u16, u32, u32) {
        let syn = net.take_frame_for_guest().expect("SYN queued");
        assert_eq!(syn.flags, TcpFlags::SYN);
        let guest_iss = 77_000;
        net.deliver_from_guest(Frame {
            src_port: syn.dst_port,
            dst_port: syn.src_port,
            seq: guest_iss,
            ack: syn.seq + 1,
            flags: TcpFlags::SYN_ACK,
            payload: Vec::new(),
        });
        assert_eq!(net.state(id).unwrap(), ClientConnState::Established);
        let ack = net.take_frame_for_guest().expect("client ACK");
        assert_eq!(ack.flags, TcpFlags::ACK);
        assert_eq!(ack.ack, guest_iss + 1);
        (syn.src_port, ack.seq, guest_iss + 1)
    }

    #[test]
    fn handshake_establishes() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        assert_eq!(net.state(id).unwrap(), ClientConnState::SynSent);
        complete_handshake(&mut net, id);
    }

    #[test]
    fn wrong_synack_ack_number_resets() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let syn = net.take_frame_for_guest().unwrap();
        net.deliver_from_guest(Frame {
            src_port: syn.dst_port,
            dst_port: syn.src_port,
            seq: 5,
            ack: syn.seq + 999, // wrong
            flags: TcpFlags::SYN_ACK,
            payload: Vec::new(),
        });
        assert_eq!(net.state(id).unwrap(), ClientConnState::Reset);
        assert_eq!(net.seq_errors(), 1);
    }

    #[test]
    fn in_order_data_is_delivered_and_acked() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let (client_port, _snd, guest_next) = complete_handshake(&mut net, id);
        net.deliver_from_guest(Frame {
            src_port: 80,
            dst_port: client_port,
            seq: guest_next,
            ack: 0,
            flags: TcpFlags::ACK,
            payload: b"hello".to_vec(),
        });
        assert_eq!(net.recv(id).unwrap(), b"hello");
        let ack = net.take_frame_for_guest().unwrap();
        assert_eq!(ack.ack, guest_next + 5);
    }

    #[test]
    fn out_of_order_data_resets_connection() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let (client_port, _snd, guest_next) = complete_handshake(&mut net, id);
        net.deliver_from_guest(Frame {
            src_port: 80,
            dst_port: client_port,
            seq: guest_next + 100, // hole
            ack: 0,
            flags: TcpFlags::ACK,
            payload: b"x".to_vec(),
        });
        assert_eq!(net.state(id).unwrap(), ClientConnState::Reset);
        let rst = net.take_frame_for_guest().unwrap();
        assert!(rst.flags.rst);
    }

    #[test]
    fn client_send_advances_sequence_numbers() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let (_, client_next, _) = complete_handshake(&mut net, id);
        net.send(id, b"abc").unwrap();
        let f1 = net.take_frame_for_guest().unwrap();
        assert_eq!(f1.seq, client_next);
        net.send(id, b"defg").unwrap();
        let f2 = net.take_frame_for_guest().unwrap();
        assert_eq!(f2.seq, client_next + 3);
        assert_eq!(f2.payload, b"defg");
    }

    #[test]
    fn send_requires_established() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        assert!(matches!(
            net.send(id, b"x"),
            Err(NetPeerError::NotEstablished(_, ClientConnState::SynSent))
        ));
    }

    #[test]
    fn fin_from_guest_closes() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let (client_port, _, guest_next) = complete_handshake(&mut net, id);
        net.deliver_from_guest(Frame {
            src_port: 80,
            dst_port: client_port,
            seq: guest_next,
            ack: 0,
            flags: TcpFlags::FIN_ACK,
            payload: Vec::new(),
        });
        assert_eq!(net.state(id).unwrap(), ClientConnState::Closed);
        let ack = net.take_frame_for_guest().unwrap();
        assert_eq!(ack.ack, guest_next + 1);
    }

    #[test]
    fn client_close_sends_fin() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        complete_handshake(&mut net, id);
        net.close(id).unwrap();
        assert_eq!(net.state(id).unwrap(), ClientConnState::FinWait);
        let fin = net.take_frame_for_guest().unwrap();
        assert!(fin.flags.fin);
        // Closing again is a no-op.
        net.close(id).unwrap();
        assert_eq!(net.pending_for_guest(), 0);
    }

    #[test]
    fn rst_from_guest_kills_connection() {
        let mut net = HostNetwork::new();
        let id = net.connect(80);
        let (client_port, _, _) = complete_handshake(&mut net, id);
        net.deliver_from_guest(Frame {
            src_port: 80,
            dst_port: client_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            payload: Vec::new(),
        });
        assert_eq!(net.state(id).unwrap(), ClientConnState::Reset);
    }

    #[test]
    fn traffic_to_unknown_port_gets_rst() {
        let mut net = HostNetwork::new();
        net.deliver_from_guest(Frame {
            src_port: 80,
            dst_port: 9, // nobody here
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            payload: b"?".to_vec(),
        });
        let rst = net.take_frame_for_guest().unwrap();
        assert!(rst.flags.rst);
        assert_eq!(rst.dst_port, 80);
    }

    #[test]
    fn reset_all_models_full_guest_reboot() {
        let mut net = HostNetwork::new();
        let a = net.connect(80);
        complete_handshake(&mut net, a);
        let b = net.connect(80);
        net.reset_all();
        assert_eq!(net.state(a).unwrap(), ClientConnState::Reset);
        assert_eq!(net.state(b).unwrap(), ClientConnState::Reset);
        assert_eq!(net.pending_for_guest(), 0);
    }

    #[test]
    fn distinct_connections_use_distinct_ports() {
        let mut net = HostNetwork::new();
        let a = net.connect(80);
        let b = net.connect(80);
        let syn_a = net.take_frame_for_guest().unwrap();
        let syn_b = net.take_frame_for_guest().unwrap();
        assert_ne!(syn_a.src_port, syn_b.src_port);
        let _ = (a, b);
    }

    #[test]
    fn wire_len_includes_header() {
        let f = Frame {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            payload: vec![0; 10],
        };
        assert_eq!(f.wire_len(), 50);
    }
}
