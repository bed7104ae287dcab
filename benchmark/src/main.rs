fn main() -> std::process::ExitCode {
    pmck_benchmark::cli::main()
}
