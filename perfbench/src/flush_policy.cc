// The WAL's flush policy: the page cache, as with the WAL on a RAM-backed
// filesystem. The engine calls fsync(2) for every group-commit flush,
// segment rotation and manifest update; the benchmark is linked with
// -Wl,--wrap=fsync so those calls land here and return at once, after the
// frames were write(2)n. On a shared host the device's flush latency drifts
// two- to three-fold within minutes, and every commit would carry it.

extern "C" int __wrap_fsync(int /*fd*/) { return 0; }
