// Workload programs reproducing the access patterns of the paper's
// benchmarks (§V-A). Each is a cloneable op-stream; the factory functions
// return per-rank program instances.
//
//  demo        — §II motivating program: each call reads 16 segments at
//                offsets (k*N + rank) with adjustable compute per call.
//  mpi-io-test — PVFS2's benchmark: process i accesses segment (i + N*j) at
//                call j; globally fully sequential; barrier between calls.
//  hpio        — region-structured accesses (region count / spacing / size).
//  ior-mpi-io  — each process sequentially reads its own 1/N block of the
//                file; random across processes at the servers.
//  noncontig   — vector-derived datatype: the file is a 2D array with 64
//                columns; each process reads one column.
//  S3asim      — sequence-similarity search: fragment reads of varying size,
//                compute, result writes.
//  BTIO        — NAS BT: interleaved tiny cells (size shrinks with process
//                count), write phase then read-back verification.
//  dependent   — adversarial Table III program: every next offset depends on
//                the data just read, so pre-execution mis-predicts.
#pragma once

#include <cstdint>
#include <memory>

#include "mpi/program.hpp"
#include "sim/rng.hpp"

namespace dpar::wl {

struct DemoConfig {
  pfs::FileId file = 0;
  std::uint64_t file_size = 1ull << 30;
  std::uint64_t segment_size = 4 * 1024;
  std::uint32_t segments_per_call = 16;
  sim::Time compute_per_call = 0;
  bool is_write = false;
};
std::unique_ptr<mpi::Program> make_demo(const DemoConfig& cfg);

struct MpiIoTestConfig {
  pfs::FileId file = 0;
  std::uint64_t file_size = 2ull << 30;
  std::uint64_t request_size = 16 * 1024;
  bool is_write = false;
  bool barrier_every_call = true;  ///< "a barrier routine is frequently called"
  sim::Time compute_per_call = 0;
  bool collective = false;
};
std::unique_ptr<mpi::Program> make_mpi_io_test(const MpiIoTestConfig& cfg);

struct HpioConfig {
  pfs::FileId file = 0;
  std::uint64_t region_count = 4096;
  std::uint64_t region_spacing = 1024;
  std::uint64_t region_size = 32 * 1024;
  std::uint64_t regions_per_call = 8;
  bool is_write = false;
  sim::Time compute_per_call = 0;
};
std::unique_ptr<mpi::Program> make_hpio(const HpioConfig& cfg);

struct IorConfig {
  pfs::FileId file = 0;
  std::uint64_t file_size = 16ull << 30;  ///< each rank owns 1/N of it
  std::uint64_t request_size = 32 * 1024;
  bool is_write = false;
  sim::Time compute_per_call = 0;
  bool collective = false;
};
std::unique_ptr<mpi::Program> make_ior(const IorConfig& cfg);

struct NoncontigConfig {
  pfs::FileId file = 0;
  std::uint64_t columns = 64;
  std::uint64_t elmt_count = 128;      ///< ints per element -> column width
  std::uint64_t rows = 16384;
  std::uint64_t bytes_per_call = 4ull << 20;  ///< total across processes
  bool is_write = false;
  bool collective = false;
  sim::Time compute_per_call = 0;
};
std::unique_ptr<mpi::Program> make_noncontig(const NoncontigConfig& cfg);

struct S3asimConfig {
  pfs::FileId database_file = 0;
  pfs::FileId result_file = 0;
  std::uint64_t database_size = 1ull << 30;
  std::uint32_t fragments = 16;
  std::uint32_t queries = 16;
  std::uint64_t min_size = 100;       ///< min query/db sequence size
  std::uint64_t max_size = 100'000;   ///< max query/db sequence size
  sim::Time compute_per_fragment = sim::usec(200);
  std::uint64_t seed = 1;
};
std::unique_ptr<mpi::Program> make_s3asim(const S3asimConfig& cfg);

struct BtioConfig {
  pfs::FileId file = 0;
  std::uint64_t total_bytes = 400ull << 20;  ///< dataset (class C ~6.8 GB)
  std::uint64_t row_bytes = 10240;  ///< bytes per interleaved row; cell = row/N
  std::uint32_t write_steps = 40;   ///< solution dumps
  bool read_back = true;            ///< verification pass at the end
  bool collective = false;
  sim::Time compute_per_step = sim::msec(2);
};
std::unique_ptr<mpi::Program> make_btio(const BtioConfig& cfg);

struct DependentConfig {
  pfs::FileId file = 0;
  std::uint64_t file_size = 2ull << 30;
  std::uint64_t request_size = 64 * 1024;
  std::uint64_t requests = 1000;
  sim::Time compute_per_call = 0;
};
std::unique_ptr<mpi::Program> make_dependent(const DependentConfig& cfg);

}  // namespace dpar::wl
