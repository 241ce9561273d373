//! Event streaming: server lifecycle events and per-job tune traces,
//! broadcast as JSON lines to subscribed connections.
//!
//! Every line written to a connection — responses *and* events — goes
//! through that connection's [`ConnWriter`], whose internal lock makes
//! each line atomic: a streamed event can interleave *between* a
//! request's response lines, never *inside* one.

use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use respec_trace::json::JsonObject;

/// Serialized line writer for one connection.
pub struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Wraps a stream (typically a `try_clone` of the reader's stream).
    pub fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
        }
    }

    /// Writes one line atomically (appends the newline).
    ///
    /// The line and its newline go out in one `write_all`, so a response is
    /// one segment: a trailing one-byte write would wait out the client's
    /// delayed ACK (≈ 40 ms on Linux) behind Nagle's algorithm.
    ///
    /// # Errors
    ///
    /// Propagates transport errors — the caller drops the connection.
    pub fn send_line(&self, line: &str) -> io::Result<()> {
        let buf = format!("{line}\n");
        let mut stream = self.stream.lock().expect("writer lock");
        stream.write_all(buf.as_bytes())?;
        stream.flush()
    }

    /// Shuts down the underlying stream (both directions), unblocking the
    /// connection's reader thread.
    pub fn disconnect(&self) {
        let stream = self.stream.lock().expect("writer lock");
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Whether the peer has closed its write half (read would see EOF).
    ///
    /// Used by readers parked on a tune waiter to notice a vanished
    /// client instead of blocking the full waiter timeout. Only the
    /// connection's own reader thread may call this — it briefly toggles
    /// the (shared) socket to non-blocking to `peek`, which is safe here
    /// because concurrent writers serialize on the same stream lock and
    /// nobody else reads the socket.
    pub fn peer_closed(&self) -> bool {
        let stream = self.stream.lock().expect("writer lock");
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let closed = match stream.peek(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
            Err(_) => true,
        };
        let _ = stream.set_nonblocking(false);
        closed
    }
}

/// Broadcast hub for the streamed event feed.
#[derive(Default)]
pub struct EventHub {
    subscribers: Mutex<Vec<(u64, Arc<ConnWriter>)>>,
    seq: AtomicU64,
}

impl EventHub {
    /// Creates an empty hub.
    pub fn new() -> EventHub {
        EventHub::default()
    }

    /// Registers a connection's writer under its connection id.
    pub fn subscribe(&self, conn_id: u64, writer: Arc<ConnWriter>) {
        let mut subs = self.subscribers.lock().expect("hub lock");
        if subs.iter().all(|(id, _)| *id != conn_id) {
            subs.push((conn_id, writer));
        }
    }

    /// Removes a connection (on close).
    pub fn unsubscribe(&self, conn_id: u64) {
        self.subscribers
            .lock()
            .expect("hub lock")
            .retain(|(id, _)| *id != conn_id);
    }

    /// Whether anyone is listening (used to skip trace collection).
    pub fn has_subscribers(&self) -> bool {
        !self.subscribers.lock().expect("hub lock").is_empty()
    }

    /// Broadcasts one event. `fields` is the event payload; the hub adds
    /// the `event` kind and a monotonic `seq`. Subscribers whose
    /// connection fails are dropped.
    ///
    /// The subscriber list is snapshotted and the hub lock released
    /// *before* any socket write: a slow or stalled subscriber must never
    /// wedge the hub (and with it every worker and reader that emits).
    /// Subscriber sockets carry a write timeout (set at accept), so one
    /// emit blocks at most that long before the offender is dropped.
    /// Consequence: events raced by concurrent emitters can reach a
    /// subscriber out of `seq` order; `seq` is the total order.
    pub fn emit(&self, kind: &str, fields: JsonObject) {
        let subs: Vec<(u64, Arc<ConnWriter>)> = {
            let subs = self.subscribers.lock().expect("hub lock");
            if subs.is_empty() {
                return;
            }
            subs.clone()
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let line = JsonObject::new()
            .str("event", kind)
            .u64("seq", seq)
            .merge_line(fields);
        for (conn_id, writer) in subs {
            if writer.send_line(&line).is_err() {
                self.unsubscribe(conn_id);
            }
        }
    }
}

/// Extension used by the hub: concatenates two flat objects into one
/// rendered line. (Kept local to the serve crate — `JsonObject` itself
/// stays a plain builder.)
trait MergeLine {
    fn merge_line(self, tail: JsonObject) -> String;
}

impl MergeLine for JsonObject {
    fn merge_line(self, tail: JsonObject) -> String {
        let head = self.finish();
        let tail = tail.finish();
        let head_body = &head[1..head.len() - 1];
        let tail_body = &tail[1..tail.len() - 1];
        if tail_body.is_empty() {
            head
        } else {
            format!("{{{head_body},{tail_body}}}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_line_concatenates_flat_objects() {
        let line = JsonObject::new()
            .str("event", "start")
            .u64("seq", 3)
            .merge_line(JsonObject::new().str("app", "lud").u64("n", 1));
        respec_trace::json::validate(&line).unwrap();
        assert_eq!(line, r#"{"event":"start","seq":3,"app":"lud","n":1}"#);
        let empty_tail = JsonObject::new()
            .str("event", "stop")
            .u64("seq", 4)
            .merge_line(JsonObject::new());
        respec_trace::json::validate(&empty_tail).unwrap();
    }
}
