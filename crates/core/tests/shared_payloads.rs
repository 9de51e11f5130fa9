//! Byte payloads are copied once, where they enter the simulated system,
//! and shared everywhere after: the value a caller receives, the function-
//! log entry that records the call and the downcall the entry recorded all
//! hold one buffer. Sharing must never let a mutation leak: the 9P server's
//! silent-corruption glitch garbles only the response it corrupts.

use vampos_core::{ComponentSet, LogEntry, Mode, System};
use vampos_host::{HostHandle, NinePGlitch};
use vampos_oslib::funcs::vfs;
use vampos_oslib::vfs::OpenFlags;
use vampos_ukernel::{names, Payload, Value};

const FILE: &str = "/data/blob";
const CONTENTS: &[u8] = b"shared payload bytes";

/// A DaS system (function logging on) over a host holding [`FILE`], with
/// the file open; returns the system, its host and the fd.
fn booted() -> (System, HostHandle, u64) {
    let host = HostHandle::new();
    host.with(|w| w.ninep_mut().put_file(FILE, CONTENTS));
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .host(host.clone())
        .build()
        .expect("boot");
    let fd = sys.os().open(FILE, OpenFlags::RDWR).expect("open");
    (sys, host, fd)
}

/// The newest VFS log entry.
fn newest_vfs_entry(sys: &System) -> &LogEntry {
    sys.function_log(names::VFS)
        .expect("VFS linked")
        .iter()
        .last()
        .expect("a logged call")
}

/// The payload of the single downcall `entry` recorded.
fn downcall_payload(entry: &LogEntry) -> &Payload {
    let [down] = entry.downcalls.as_slice() else {
        panic!("expected one downcall, got {:?}", entry.downcalls);
    };
    down.ret
        .as_ref()
        .expect("downcall succeeded")
        .as_payload()
        .expect("bytes")
}

fn pread(sys: &mut System, fd: u64) -> Value {
    sys.syscall(
        names::VFS,
        vfs::PREAD,
        &[Value::U64(fd), Value::U64(64), Value::U64(0)],
    )
    .expect("pread")
}

#[test]
fn a_logged_read_shares_one_buffer_with_its_downcall_and_the_caller() {
    let (mut sys, _host, fd) = booted();
    let got = sys
        .syscall(names::VFS, vfs::READ, &[Value::U64(fd), Value::U64(64)])
        .expect("read");
    let got = got.as_payload().expect("bytes");
    assert_eq!(got, CONTENTS);

    let entry = newest_vfs_entry(&sys);
    let logged = entry.ret.as_payload().expect("bytes");
    assert!(Payload::ptr_eq(got, logged), "caller and log entry share");
    assert!(
        Payload::ptr_eq(logged, downcall_payload(entry)),
        "log entry and recorded downcall share"
    );
}

#[test]
fn a_logged_write_shares_the_callers_buffer() {
    let (mut sys, _host, fd) = booted();
    let data = Payload::from(&b"new bytes"[..]);
    sys.syscall(
        names::VFS,
        vfs::WRITE,
        &[Value::U64(fd), Value::Bytes(data.clone())],
    )
    .expect("write");
    let entry = newest_vfs_entry(&sys);
    let logged = entry.args[1].as_payload().expect("bytes");
    assert!(
        Payload::ptr_eq(&data, logged),
        "log entry shares the argument"
    );
}

#[test]
fn a_silently_corrupted_read_garbles_only_its_own_response() {
    let (mut sys, host, fd) = booted();
    let clean = pread(&mut sys, fd);
    let clean_entry_seq = newest_vfs_entry(&sys).seq;

    host.with(|w| {
        w.ninep_mut()
            .inject_glitch(NinePGlitch::CorruptSilent { count: 1 })
    });
    let garbled = pread(&mut sys, fd);
    let want: Vec<u8> = CONTENTS.iter().map(|b| b ^ 0x5a).collect();
    assert_eq!(garbled.as_bytes().expect("bytes"), want.as_slice());

    // The host's stored file is untouched ...
    assert_eq!(
        host.with(|w| w.ninep().read_file(FILE)),
        Some(CONTENTS.to_vec())
    );
    // ... and so is every buffer an earlier log entry holds.
    assert_eq!(clean.as_bytes().expect("bytes"), CONTENTS);
    let log = sys.function_log(names::VFS).expect("VFS linked");
    let earlier = log
        .iter()
        .find(|e| e.seq == clean_entry_seq)
        .expect("earlier read still logged");
    assert_eq!(earlier.ret.as_bytes().expect("bytes"), CONTENTS);
    assert_eq!(downcall_payload(earlier), CONTENTS);

    // The glitch window was one read long.
    assert_eq!(pread(&mut sys, fd).as_bytes().expect("bytes"), CONTENTS);
}
