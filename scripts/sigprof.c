/*
 * A sampling profiler for any dynamically linked program, loaded with
 * LD_PRELOAD. `scripts/profile.sh` builds and drives it; see there.
 *
 * At load it arms ITIMER_PROF (process CPU time; the kernel rounds the
 * requested 1 ms to its tick, 250 Hz on a HZ=250 kernel). Each SIGPROF
 * stores one glibc `backtrace()` into a preallocated buffer, starting
 * at the interrupted instruction: the handler's own frame and the
 * signal trampoline are dropped here. At exit it writes the samples and
 * a copy of /proc/self/maps to `$SIGPROF_OUT.<pid>` (default prefix
 * `sigprof.out`), so the addresses can be resolved offline.
 *
 * Output format, one record per line:
 *   S <hex addr> <hex addr> ...   one sample, innermost frame first
 *   M <a line of /proc/self/maps>
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 64
#define MAX_WORDS (4u << 20) /* 32 MiB of frames; untouched pages cost nothing */

static uintptr_t words[MAX_WORDS];
static atomic_size_t used;
static atomic_size_t dropped;

static uintptr_t interrupted_pc(void *uctx) {
    ucontext_t *uc = uctx;
#if defined(__x86_64__)
    return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (uintptr_t)uc->uc_mcontext.pc;
#else
    (void)uc;
    return 0;
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    int saved = errno;
    void *frames[MAX_FRAMES + 4];
    int n = backtrace(frames, MAX_FRAMES + 4);
    uintptr_t pc = interrupted_pc(uctx);
    /* frames[0] is this handler and frames[1] the trampoline; the first
     * real frame is the interrupted pc when the unwinder found it. */
    int from = n > 2 ? 2 : n;
    for (int i = 0; i < n; i++) {
        if (pc != 0 && (uintptr_t)frames[i] == pc) {
            from = i;
            break;
        }
    }
    size_t count = (size_t)(n - from);
    if (count > MAX_FRAMES)
        count = MAX_FRAMES;
    size_t at = atomic_fetch_add(&used, count + 1);
    if (at + count + 1 > MAX_WORDS) {
        atomic_fetch_add(&dropped, 1);
        errno = saved;
        return;
    }
    words[at] = count;
    for (size_t i = 0; i < count; i++)
        words[at + 1 + i] = (uintptr_t)frames[from + i];
    errno = saved;
}

static void arm(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sigprof_start(void) {
    /* The first backtrace() loads libgcc_s, which is not safe inside a
     * signal handler: do it now. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    arm(1000);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    arm(0);
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof.out", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    size_t end = atomic_load(&used);
    if (end > MAX_WORDS)
        end = MAX_WORDS;
    for (size_t at = 0; at < end;) {
        size_t count = words[at];
        if (count == 0 && at + 1 >= end)
            break;
        if (at + 1 + count > end)
            break;
        fputc('S', out);
        for (size_t i = 0; i < count; i++)
            fprintf(out, " %lx", (unsigned long)words[at + 1 + i]);
        fputc('\n', out);
        at += count + 1;
    }
    if (atomic_load(&dropped))
        fprintf(out, "D %zu\n", atomic_load(&dropped));
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "M %s", line);
        fclose(maps);
    }
    fclose(out);
}
