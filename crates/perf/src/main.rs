fn main() -> std::process::ExitCode {
    legw_perf::cli::main(std::env::args().skip(1).collect())
}
