//! Metrics exposition: a dependency-free Prometheus scrape endpoint and a
//! periodic file snapshot writer.
//!
//! Both consume a [`MetricsRegistry`] handle (an `Arc` bump), so a serving
//! process can expose the same registry its `SolverSession` writes into.
//! The HTTP surface is deliberately tiny — one blocking accept loop on a
//! `std::net::TcpListener`, answering every request with the current
//! [`crate::MetricsSnapshot::to_prometheus`] rendering — because a scrape
//! target needs exactly that and nothing else, and the workspace is
//! offline (no HTTP crate to lean on).

use crate::metrics::MetricsRegistry;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A background Prometheus scrape endpoint. Dropping the server (or
/// calling [`MetricsServer::shutdown`]) stops the accept loop and joins
/// the thread.
pub struct MetricsServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`MetricsServer::local_addr`]) and starts answering every HTTP
    /// request with the registry's current Prometheus rendering.
    pub fn bind(addr: impl ToSocketAddrs, registry: MetricsRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pastix-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // One request per connection; scrape bodies are small
                    // and errors just drop the connection (the scraper
                    // retries).
                    let _ = serve_one(stream, &registry);
                }
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn serve_one(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read (and discard) the request line + headers; we serve one document
    // regardless of path, so parsing stops at the blank line.
    let mut buf = [0u8; 1024];
    let mut seen: Vec<u8> = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        seen.extend_from_slice(&buf[..n]);
        if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 16 * 1024 {
            break;
        }
    }
    let body = registry.snapshot().to_prometheus();
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A background thread that rewrites a metrics snapshot file every
/// `interval` — file-based scraping for deployments that cannot open a
/// port. The write is atomic (temp file + rename) so a concurrent reader
/// never sees a torn document.
pub struct SnapshotWriter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    path: PathBuf,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter").field("path", &self.path).finish()
    }
}

impl SnapshotWriter {
    /// Starts writing the registry's Prometheus rendering to `path` every
    /// `interval` (first write is immediate).
    pub fn start(
        path: impl Into<PathBuf>,
        interval: Duration,
        registry: MetricsRegistry,
    ) -> std::io::Result<Self> {
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let path2 = path.clone();
        let handle = std::thread::Builder::new()
            .name("pastix-snapshot".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    write_atomic(&path2, &registry.snapshot().to_prometheus());
                    // Sleep in short slices so shutdown is prompt.
                    let mut left = interval;
                    while !stop2.load(Ordering::Acquire) && !left.is_zero() {
                        let step = left.min(Duration::from_millis(50));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                }
                // Final write so the file reflects end-of-run totals.
                write_atomic(&path2, &registry.snapshot().to_prometheus());
            })?;
        Ok(Self {
            stop,
            handle: Some(handle),
            path,
        })
    }

    /// The snapshot file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Stops the writer after one final snapshot and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn write_atomic(path: &std::path::Path, body: &str) {
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: std::net::SocketAddr) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_endpoint_serves_prometheus_text() {
        let m = MetricsRegistry::new();
        m.add_counter("serve.requests", 7);
        m.observe("serve.latency_ns", 1234);
        let server = MetricsServer::bind("127.0.0.1:0", m.clone()).unwrap();
        let resp = http_get(server.local_addr());
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("pastix_serve_requests 7"));
        assert!(resp.contains("pastix_serve_latency_ns_count 1"));
        // The endpoint reads the live registry: later writes show up.
        m.add_counter("serve.requests", 3);
        let resp = http_get(server.local_addr());
        assert!(resp.contains("pastix_serve_requests 10"));
        server.shutdown();
    }

    #[test]
    fn snapshot_writer_emits_file() {
        let m = MetricsRegistry::new();
        m.add_counter("serve.batches", 2);
        let path = std::env::temp_dir().join("pastix-expose-test.prom");
        let w = SnapshotWriter::start(&path, Duration::from_secs(3600), m).unwrap();
        w.shutdown(); // immediate first write + final write
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("pastix_serve_batches 2"));
        let _ = std::fs::remove_file(&path);
    }
}
