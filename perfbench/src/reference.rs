//! A fixed reference workload that calibrates out the machine's speed
//! phases.
//!
//! On the 2-vCPU machine the bounds were measured on, the same compile
//! takes ~14 ms or ~24 ms depending on a speed phase that can outlast a
//! whole run, so best-of-passes alone still swung 15–27% between runs.
//! This kernel does what the compiler's hot paths do — hashed adjacency
//! maps, a BFS with a hashed visited set, a sort — in code the benchmark
//! owns, so no change to the program can move it. Over 5-s windows its
//! fastest time tracked the compiler's: the spread of best compile time
//! fell from 0.24–0.28 raw to 0.05–0.10 once divided by the kernel's
//! best time in the same window.
//!
//! Timed metrics are therefore reported as *reference-normalised*
//! milliseconds: measured time × [`NOMINAL_MS`] ÷ the kernel's time
//! measured next to it (around each compile, before each set-up, in the
//! serve loop's pauses). On a machine running at the kernel's nominal
//! speed they are plain milliseconds; raw values go to stderr.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

/// The kernel's fastest time on the machine the bounds were measured on
/// (2 vCPUs, Intel Xeon under KVM), in ms.
pub const NOMINAL_MS: f64 = 3.5;

/// Nodes of the kernel's random graph.
const NODES: u32 = 8_000;

fn kernel() -> u64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(NODES)) as u32
    };
    let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
    for v in 0..NODES {
        for _ in 0..3 {
            let u = next();
            adjacency.entry(v).or_default().push(u);
            adjacency.entry(u).or_default().push(v);
        }
    }
    let mut seen = HashSet::from([0]);
    let mut queue = VecDeque::from([0u32]);
    let mut acc = 0u64;
    while let Some(v) = queue.pop_front() {
        acc += u64::from(v);
        for &u in &adjacency[&v] {
            if seen.insert(u) {
                queue.push_back(u);
            }
        }
    }
    let mut keys: Vec<u32> = adjacency.into_keys().collect();
    keys.sort_unstable();
    acc + u64::from(keys[keys.len() / 2])
}

/// Runs the kernel once and returns its wall time in ms.
pub fn time_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// [`Ping::time_ms`] on the machine the bounds were measured on, in ms.
pub const NOMINAL_PING_MS: f64 = 0.02;

/// Round trips per [`Ping::time_ms`].
const PING_ROUNDS: usize = 16;

/// The loopback reference for the serve lane's hits. A hit is a few
/// socket reads and writes and thread wake-ups with little compute, which
/// the kernel above tracks poorly; this times 64-byte round trips between
/// this thread and an echo thread over loopback TCP, in code the
/// benchmark owns, so no change to the program can move it either.
pub struct Ping {
    stream: TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
}

impl Ping {
    /// Starts the echo thread and connects to it.
    pub fn start() -> io::Result<Ping> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        Ok(Ping {
            stream,
            echo: Some(echo),
        })
    }

    /// The median of [`PING_ROUNDS`] round trips, in ms.
    pub fn time_ms(&mut self) -> io::Result<f64> {
        let mut buf = [7u8; 64];
        let mut rounds = Vec::with_capacity(PING_ROUNDS);
        for _ in 0..PING_ROUNDS {
            let t = Instant::now();
            self.stream.write_all(&buf)?;
            self.stream.read_exact(&mut buf)?;
            rounds.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(crate::stats::median(&rounds))
    }
}

impl Drop for Ping {
    /// Closes the connection, so the echo thread sees end of stream, and
    /// waits for it.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
