// Heap allocation counter. Loaded with LD_PRELOAD, it counts the calls to
// malloc, calloc and realloc (operator new reaches malloc) and the bytes
// they request, and prints one line to stderr when the program exits:
//
//   LD_PRELOAD=build/tools/liballoc_count.so build/bench/bench_x
//   alloc_count: calls=<n> bytes=<n>
//
// The counts are exact and repeat run for run. The counters are not atomic:
// every program it measures here is single-threaded. ASan replaces malloc
// itself, so sanitizer builds do not build it.
#include <stddef.h>
#include <stdio.h>

void* __libc_malloc(size_t size);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* block, size_t size);

static unsigned long long calls;
static unsigned long long bytes;

void* malloc(size_t size) {
  ++calls;
  bytes += size;
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  ++calls;
  bytes += count * size;
  return __libc_calloc(count, size);
}

void* realloc(void* block, size_t size) {
  ++calls;
  bytes += size;
  return __libc_realloc(block, size);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count: calls=%llu bytes=%llu\n", calls, bytes);
}
