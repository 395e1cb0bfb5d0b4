/**
 * @file
 * The oscar-worker executable: child half of the distributed
 * execution subsystem (src/dist). Connects to a ProcessPool's TCP
 * listener -- spawned by the pool itself, or started by hand on any
 * host as `oscar-worker --connect host:port` with the fleet secret in
 * OSCAR_DIST_SECRET; see src/dist/worker.h for the protocol.
 */

#include "src/dist/worker.h"

int
main(int argc, char** argv)
{
    return oscar::dist::workerEntry(argc, argv);
}
