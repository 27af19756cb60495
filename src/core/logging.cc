#include "core/logging.hh"

#include <cstdlib>
#include <iostream>

namespace uqsim {

void
panic(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

} // namespace uqsim
