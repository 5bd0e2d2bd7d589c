from .cli import main_and_exit

if __name__ == "__main__":
    main_and_exit()
