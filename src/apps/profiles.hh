/**
 * @file
 * Calibrated static profiles for the open-source components the suite
 * is built from (Sec 3.1) and for the microservice classes the paper's
 * characterization distinguishes (Sec 4).
 *
 * Calibration targets (from the paper's figures):
 *  - L1i MPKI (Fig 11): monolith ~65-70, nginx ~30, MongoDB ~38,
 *    memcached ~12, single-concern microservices ~2-12, wishlist ~1.
 *  - Cycle breakdown (Fig 10): front-end-stall dominated, retiring
 *    ~21% average for Social Network; Search (Xapian) high IPC;
 *    Recommender very low IPC.
 *  - Kernel share (Fig 14): memcached/MongoDB kernel-heavy; node.js
 *    and Java tiers more user/library time.
 *  - MongoDB I/O-bound (Fig 12: tolerates minimum frequency).
 */

#ifndef UQSIM_APPS_PROFILES_HH
#define UQSIM_APPS_PROFILES_HH

#include <string>

#include "cpu/microarch.hh"

namespace uqsim::apps {

using cpu::ServiceProfile;

/** nginx: web server / load balancer (C). */
ServiceProfile nginxProfile(const std::string &name = "nginx");

/** php-fpm web tier behind nginx (PHP/C). */
ServiceProfile phpFpmProfile(const std::string &name = "php-fpm");

/** memcached in-memory KV cache (C). */
ServiceProfile memcachedProfile(const std::string &name = "memcached");

/** MongoDB persistent store (C++); heavily I/O-bound. */
ServiceProfile mongodbProfile(const std::string &name = "mongodb");

/** MySQL relational store; I/O-bound with more compute than Mongo. */
ServiceProfile mysqlProfile(const std::string &name = "mysql");

/** NFS file store for streaming media. */
ServiceProfile nfsProfile(const std::string &name = "nfs");

/** Small single-concern Thrift microservice in C/C++. */
ServiceProfile cppMicroProfile(const std::string &name);

/** Single-concern microservice in Java (bigger footprint, JIT). */
ServiceProfile javaMicroProfile(const std::string &name);

/** Single-concern microservice in Go. */
ServiceProfile goMicroProfile(const std::string &name);

/** node.js microservice (event-driven, library-heavy). */
ServiceProfile nodejsMicroProfile(const std::string &name);

/** Xapian-based search leaf: locality-optimized, high IPC. */
ServiceProfile xapianProfile(const std::string &name = "search-index");

/** ML recommender engine: memory-bound, very low IPC. */
ServiceProfile recommenderProfile(const std::string &name = "recommender");

/** Monolithic Java implementation of an end-to-end service. */
ServiceProfile monolithProfile(const std::string &name = "monolith");

/** Queue broker (RabbitMQ-like). */
ServiceProfile queueProfile(const std::string &name = "queue");

/** nginx-hls video streaming module. */
ServiceProfile streamingProfile(const std::string &name = "nginx-hls");

} // namespace uqsim::apps

#endif // UQSIM_APPS_PROFILES_HH
