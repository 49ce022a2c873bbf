//! Criterion benches for the communication substrate: error-detection
//! throughput (the `L_CRC/Checksum` term of Eq. 3) and packetized
//! transfer cost at the paper's channel operating point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::StdRng, SeedableRng};

use rhychee_channel::crc::{crc32, internet_checksum, Detector};
use rhychee_channel::packet::{BitFlipChannel, PacketLink, PACKET_BITS};

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detectors");
    // 8191 / 8192 / 8193 leave the CRC's carry-less fold a 15-, 0- and
    // 1-byte tail for the slice-by-8 stream; 624,736 is one CKKS-4 upload
    // frame.
    for size in [175usize, 1500, 8191, 8192, 8193, 65536, 624_736] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::new("crc32", size), |b| b.iter(|| crc32(&data)));
        group.bench_function(BenchmarkId::new("checksum16", size), |b| {
            b.iter(|| internet_checksum(&data))
        });
    }
    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_transfer");
    group.sample_size(10);
    let payload: Vec<u8> = (0..175 * 100).map(|i| (i % 256) as u8).collect();
    let mut rng = StdRng::seed_from_u64(1);
    for (name, ber) in [("clean", 0.0f64), ("ber_1e-4", 1e-4), ("ber_1e-3", 1e-3)] {
        let link = PacketLink::new(BitFlipChannel::new(ber), Detector::Crc32, PACKET_BITS);
        group.bench_function(BenchmarkId::new("transfer_100pkt", name), |b| {
            b.iter(|| link.transfer(&payload, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detectors, bench_transfer);
criterion_main!(benches);
