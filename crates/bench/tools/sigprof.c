// A sampling profiler for hosts without `perf`: preload it into a binary
// built with frame pointers and it records the call stack at every
// ITIMER_PROF tick (997 Hz of process CPU time), walking the saved-rbp
// chain, and writes the stacks at exit.  x86-64 Linux only.
//
//   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
//   RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release ...
//   SIGPROF_OUT=run.stacks LD_PRELOAD=./sigprof.so ./binary ...
//   sigprof_report.py ./binary run.stacks
//
// Output: the process's /proc/self/maps as `#map` lines (the symboliser
// needs the load base of a PIE binary), then one line per sample — hex
// program counters, leaf first.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 18)
#define MAX_DEPTH 48
#define MAX_STACK_BYTES (8u << 20)

static uintptr_t *stacks; // MAX_SAMPLES rows of MAX_DEPTH, zero-terminated
static volatile long taken;

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    long i = __sync_fetch_and_add(&taken, 1);
    if (i >= MAX_SAMPLES)
        return;
    uintptr_t *row = stacks + i * MAX_DEPTH;
    uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
    int depth = 0;
    row[depth++] = uc->uc_mcontext.gregs[REG_RIP];
    // Only follow frame pointers that stay inside this thread's stack and
    // move towards its base; anything else ends the walk.
    while (depth < MAX_DEPTH && fp > sp && fp < sp + MAX_STACK_BYTES && fp % 8 == 0) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] < 4096)
            break;
        row[depth++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
}

static void write_stacks(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.stacks", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[512];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "#map %s", line);
        fclose(maps);
    }
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        const uintptr_t *row = stacks + i * MAX_DEPTH;
        for (int d = 0; d < MAX_DEPTH && row[d]; d++)
            fprintf(out, "%lx ", (unsigned long)row[d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    stacks = calloc((size_t)MAX_SAMPLES * MAX_DEPTH, sizeof *stacks);
    if (!stacks)
        return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_tick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval tick = {{0, 1003}, {0, 1003}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(write_stacks);
}
