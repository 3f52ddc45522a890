/* hostprof sampler: where does a binary spend its CPU time, with no perf
 * and no valgrind.  Build:  gcc -O2 -shared -fPIC -o libsampler.so sampler.c
 * Use:    SAMPLER_OUT=s.txt LD_PRELOAD=./libsampler.so <binary> <args>
 * Read:   python3 symbolize.py s.txt
 * The binary must keep frame pointers (RUSTFLAGS="-C force-frame-pointers=yes").
 * Every 1 ms of process CPU time (ITIMER_PROF) the SIGPROF handler records
 * the interrupted PC and walks the frame-pointer chain of the main thread's
 * stack, at most FRAMES deep, into a buffer allocated up front; at exit the
 * binary's /proc/self/maps lines and one line of hex PCs per sample are
 * written to $SAMPLER_OUT.  x86-64 Linux only; without SAMPLER_OUT it does
 * nothing. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { FRAMES = 24, SAMPLES = 1 << 18 }; /* 262144 samples = 4.3 CPU-minutes */
static uintptr_t (*buf)[FRAMES];
static volatile size_t taken;
static uintptr_t stack_lo, stack_top; /* the most the main thread's stack can span */
static const char *out_path;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    if (taken == SAMPLES) return;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *row = buf[taken], sp = r[REG_RSP], fp = r[REG_RBP];
    int n = 0;
    row[n++] = r[REG_RIP];
    /* A frame is [saved fp][return address]; follow it only on the main
     * thread (everything from its sp up to stack_top is mapped, whatever a
     * binary without frame pointers left in rbp), while it stays above
     * the last one, and aligned. Other threads get their PC alone. */
    while (n < FRAMES && sp >= stack_lo && fp >= sp && fp + 16 <= stack_top && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        row[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    if (n < FRAMES) row[n] = 0;
    taken++;
}

__attribute__((constructor)) static void start(void) {
    if (!(out_path = getenv("SAMPLER_OUT")) || !(buf = calloc(SAMPLES, sizeof *buf))) return;
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%*x-%lx", &stack_top);
    if (maps) fclose(maps);
    struct rlimit lim;
    int bounded = getrlimit(RLIMIT_STACK, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY;
    stack_lo = stack_top - (bounded ? lim.rlim_cur : 8 << 20);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    if (!out_path || !buf) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char exe[512], line[1024];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len < 0 ? 0 : len] = 0;
    FILE *out = fopen(out_path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out) return;
    while (maps && fgets(line, sizeof line, maps))
        if (*exe && strstr(line, exe)) fprintf(out, "map %s", line);
    for (size_t s = 0; s < taken; s++) {
        for (int f = 0; f < FRAMES && buf[s][f]; f++) fprintf(out, "%lx ", buf[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}
