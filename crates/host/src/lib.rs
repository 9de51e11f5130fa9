//! The "host side" of the VampOS-RS simulation.
//!
//! A unikernel runs inside a VM; its devices are backed by the hypervisor and
//! the host OS. The paper's prototype uses QEMU with a 9P share for the file
//! system and a virtio network device, and §VIII's central limitation —
//! *VIRTIO cannot be component-rebooted because its ring buffers are shared
//! with host Linux* — depends on that structure. This crate rebuilds the host
//! side so the guest components in `vampos-oslib` have something real to talk
//! to:
//!
//! * [`NinePServer`] — an in-memory 9P file server (`Tattach`/`Twalk`/
//!   `Topen`/`Tread`/`Twrite`/… request–response pairs over fids),
//! * [`HostNetwork`] — the external network peer: client endpoints with a
//!   simplified-but-real TCP state machine (SYN/ACK handshakes, byte-counted
//!   sequence numbers, RST on inconsistency) used by the workload generators,
//! * [`VirtQueue`] — virtio-style descriptor rings shared between guest and
//!   host, including the **desynchronisation on one-sided reset** that makes
//!   VIRTIO unrebootable without host cooperation,
//! * [`HostWorld`] — the bundle of all host state a guest instance attaches
//!   to.
//!
//! Everything is single-threaded (`Rc<RefCell<…>>` via [`HostHandle`]), like
//! the rest of the simulation.

pub mod netpeer;
pub mod ninep;
pub mod virtio;
pub mod world;

pub use netpeer::{take_front, ClientConnId, ClientConnState, Frame, HostNetwork, TcpFlags};
pub use ninep::{Fid, NinePError, NinePGlitch, NinePRequest, NinePResponse, NinePServer, Qid};
pub use virtio::{Descriptor, RingGlitch, VirtQueue, VirtQueueError};
pub use world::{HostHandle, HostWorld};
